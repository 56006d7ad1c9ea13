module Seq32 = Tas_proto.Seq32
module Ring = Tas_buffers.Ring_buffer
module A = Flow_arena

(* --- Slot access ---------------------------------------------------------

   Each Table-3 field is read and written here, on the arena's bytes, with
   the bigstring primitives: one load or store per u16/u32, no call into
   another module. The byte image is little-endian at the offsets of
   {!Flow_arena.field_layout}. *)

external get16 : A.bytes_arr -> int -> int = "%caml_bigstring_get16u"
external set16 : A.bytes_arr -> int -> int -> unit = "%caml_bigstring_set16u"
external get32 : A.bytes_arr -> int -> int32 = "%caml_bigstring_get32u"
external set32 : A.bytes_arr -> int -> int32 -> unit = "%caml_bigstring_set32u"
external big_endian : unit -> bool = "%big_endian"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Table 3: 102 bytes, [Flow_arena.slot_bytes]. *)
let state_bytes = 102

let[@inline] le16 v = if big_endian () then bswap16 v else v
let[@inline] le32 v = if big_endian () then bswap32 v else v

(* [arena]/[slot] name the flow's Table-3 record: a slot of the shared arena
   while the flow is live, slot 0 of a private detached arena after
   [release]. *)
type t = {
  mutable arena : A.t;
  mutable slot : int;
  rx_buf : Ring.t;
  tx_buf : Ring.t;
  ooo : Tas_buffers.Ooo_interval.t;
  mutable bucket : Rate_bucket.t;
  (* Loss-recovery companion (policy kind + sender scoreboard): on the heap,
     like the rings and the out-of-order interval — the recovery
     subsystem's documented side-table. Reno never grows it beyond the kind
     tag. *)
  rec_state : Tas_recovery.State.t;
}

exception Arena_exhausted

(* Fixed-width reads and writes at byte [off] of the flow's slot. *)
let[@inline] at t off = (t.slot * state_bytes) + off
let[@inline] u8 t off =
  Char.code (Bigarray.Array1.unsafe_get t.arena.A.data (at t off))

let[@inline] set_u8 t off v =
  Bigarray.Array1.unsafe_set t.arena.A.data (at t off)
    (Char.unsafe_chr (v land 0xff))

let[@inline] u16 t off = le16 (get16 t.arena.A.data (at t off))
let[@inline] set_u16 t off v = set16 t.arena.A.data (at t off) (le16 v)

(* [i32] sign-extends: spans store [-1] for "none". *)
let[@inline] i32 t off =
  Int32.to_int (le32 (get32 t.arena.A.data (at t off)))

let[@inline] u32 t off = i32 t off land 0xFFFF_FFFF

let[@inline] set_u32 t off v =
  set32 t.arena.A.data (at t off) (le32 (Int32.of_int v))

let[@inline] set_u24 t off v =
  set_u16 t off v;
  set_u8 t (off + 2) (v lsr 16)

(* --- Accessors ---------------------------------------------------------- *)

let opaque t = u32 t 0 lor (u32 t 4 lsl 32)
let local_port t = u16 t 60
let peer_ip t = u32 t 56
let peer_port t = u16 t 62
let peer_mac t = u32 t 70 lor (u16 t 74 lsl 32)
let peer_wscale t = u8 t 76
let context t = u16 t 64
let set_context t v = set_u16 t 64 v
let tx_sent t = u32 t 16
let set_tx_sent t v = set_u32 t 16 v
let seq t = u32 t 8
let set_seq t v = set_u32 t 8 v
let ack t = u32 t 12
let set_ack t v = set_u32 t 12 v
let window t = u32 t 20
let set_window t v = set_u32 t 20 v
let dupack_cnt t = u16 t 66
let set_dupack_cnt t v = set_u16 t 66 v
let cnt_ackb t = u32 t 24
let set_cnt_ackb t v = set_u32 t 24 v
let cnt_ecnb t = u32 t 28
let set_cnt_ecnb t v = set_u32 t 28 v
let cnt_frexmits t = u16 t 68
let set_cnt_frexmits t v = set_u16 t 68 v
let rtt_est t = u32 t 32
let set_rtt_est t v = set_u32 t 32 v
let ts_recent t = u32 t 36
let set_ts_recent t v = set_u32 t 36 v
let tx_span t = i32 t 40
let set_tx_span t v = set_u32 t 40 v
let rx_span t = i32 t 44
let set_rx_span t v = set_u32 t 44 v

(* The packed flags byte (offset 77): bit 0 in_recovery, 1 rx_notified,
   2 tx_notified, 3 tx_interest, 4 tx_timer_armed, 5 fin_received,
   6 fin_sent, 7 rx_closed. *)
let[@inline] flag t bit = u8 t 77 land (1 lsl bit) <> 0

let[@inline] set_flag t bit v =
  let f = u8 t 77 in
  set_u8 t 77 (if v then f lor (1 lsl bit) else f land lnot (1 lsl bit))

let in_recovery t = flag t 0
let set_in_recovery t v = set_flag t 0 v
let rx_notified t = flag t 1
let set_rx_notified t v = set_flag t 1 v
let tx_notified t = flag t 2
let set_tx_notified t v = set_flag t 2 v
let tx_interest t = flag t 3
let set_tx_interest t v = set_flag t 3 v
let tx_timer_armed t = flag t 4
let set_tx_timer_armed t v = set_flag t 4 v
let fin_received t = flag t 5
let set_fin_received t v = set_flag t 5 v
let fin_sent t = flag t 6
let set_fin_sent t v = set_flag t 6 v
let rx_closed t = flag t 7
let set_rx_closed t v = set_flag t 7 v

(* --- Lifecycle ----------------------------------------------------------- *)

let create ~arena:a ?(recovery = Tas_recovery.Policy.Reno) ?(ooo_ranges = 1)
    ~opaque ~context ~bucket ~rx_buf_size ~tx_buf_size
    ~local_port ~peer_ip ~peer_port ~peer_mac ~tx_iss ~rx_next ~window
    ~peer_wscale () =
  let i = match A.alloc a with None -> raise Arena_exhausted | Some i -> i in
  let t =
    {
      arena = a;
      slot = i;
      rx_buf = Ring.create rx_buf_size;
      tx_buf = Ring.create tx_buf_size;
      ooo = Tas_buffers.Ooo_interval.create ~max_ranges:ooo_ranges ();
      bucket;
      rec_state = Tas_recovery.State.create recovery;
    }
  in
  set_u32 t 0 opaque;
  set_u32 t 4 (opaque lsr 32);
  set_u16 t 60 local_port;
  set_u32 t 56 peer_ip;
  set_u16 t 62 peer_port;
  set_u32 t 70 peer_mac;
  set_u16 t 74 (peer_mac lsr 32);
  set_u8 t 76 peer_wscale;
  set_u16 t 64 context;
  set_seq t tx_iss;
  set_ack t rx_next;
  set_window t window;
  set_tx_span t (-1);
  set_rx_span t (-1);
  set_u24 t 96 rx_buf_size;
  set_u24 t 99 tx_buf_size;
  t

let slot t = t.slot
let arena t = t.arena
let released t = A.detached t.arena

(* Teardown: move the record into a private arena and return the shared
   slot. Handles retained past teardown (sockets, queued context events,
   pacing timers) keep reading coherent final state and can never reach a
   recycled slot. Bumping the recovery generation dissolves pending TLP /
   RACK timers. *)
let release t =
  if not (released t) then begin
    Tas_recovery.State.bump_gen t.rec_state;
    t.arena <- A.detach t.arena t.slot;
    t.slot <- 0
  end

let rx_buf t = t.rx_buf
let tx_buf t = t.tx_buf
let ooo t = t.ooo
let bucket t = t.bucket
let set_bucket t b = t.bucket <- b
let recovery t = t.rec_state
let recovery_kind t = t.rec_state.Tas_recovery.State.kind

(* --- Derived views ------------------------------------------------------ *)

let tuple t ~local_ip =
  {
    Tas_proto.Addr.Four_tuple.local_ip;
    local_port = local_port t;
    peer_ip = peer_ip t;
    peer_port = peer_port t;
  }

let snd_una t = Seq32.add (seq t) (-tx_sent t)

(* The next expected byte [ack] sits at the rx ring's head offset; later
   sequence numbers land deeper into the buffer window. *)
let seq_of_rx_offset t off = Seq32.add (ack t) (off - Ring.head t.rx_buf)
let rx_offset_of_seq t s = Ring.head t.rx_buf + Seq32.diff s (ack t)
let tx_available t = Ring.used t.tx_buf - tx_sent t

(* Refresh the arena's shadow of state operationally held in companion
   structures (ring positions, the out-of-order interval) so a slot is a
   complete Table-3 image at snapshot time. The hot path never calls this;
   dumps and tests do. *)
let sync_shadow t =
  set_u32 t 80 (Ring.head t.rx_buf);
  set_u32 t 84 (Ring.tail t.rx_buf);
  set_u32 t 88 (Ring.head t.tx_buf);
  set_u32 t 92 (Ring.tail t.tx_buf);
  set_u24 t 96 (Ring.capacity t.rx_buf);
  set_u24 t 99 (Ring.capacity t.tx_buf);
  let start, len =
    match Tas_buffers.Ooo_interval.interval t.ooo with
    | None -> (0, 0)
    | Some r -> r
  in
  set_u32 t 48 start;
  set_u32 t 52 len

let to_json t =
  let module J = Tas_telemetry.Json in
  sync_shadow t;
  let bucket =
    match Rate_bucket.mode t.bucket with
    | Rate_bucket.Rate bps ->
      J.Obj [ ("mode", J.Str "rate"); ("rate_bps", J.Float bps) ]
    | Rate_bucket.Window w ->
      J.Obj [ ("mode", J.Str "window"); ("cwnd_bytes", J.Int w) ]
  in
  let ooo =
    match Tas_buffers.Ooo_interval.interval t.ooo with
    | None -> J.Null
    | Some (start, len) ->
      J.Obj [ ("start", J.Int start); ("len", J.Int len) ]
  in
  J.Obj
    ([
      ("opaque", J.Int (opaque t));
      ("context", J.Int (context t));
      ("peer", J.Str
         (Printf.sprintf "%s:%d" (Tas_proto.Addr.ipv4_to_string (peer_ip t))
            (peer_port t)));
      ("local_port", J.Int (local_port t));
      ("seq", J.Int (seq t));
      ("ack", J.Int (ack t));
      ("snd_una", J.Int (snd_una t));
      ("tx_sent", J.Int (tx_sent t));
      ("tx_avail", J.Int (tx_available t));
      ("tx_buf_used", J.Int (Ring.used t.tx_buf));
      ("tx_buf_free", J.Int (Ring.free t.tx_buf));
      ("rx_buf_used", J.Int (Ring.used t.rx_buf));
      ("rx_buf_free", J.Int (Ring.free t.rx_buf));
      ("window", J.Int (window t));
      ("dupack_cnt", J.Int (dupack_cnt t));
      ("in_recovery", J.Bool (in_recovery t));
      ("bucket", bucket);
      ("ooo", ooo);
      ("cnt_ackb", J.Int (cnt_ackb t));
      ("cnt_ecnb", J.Int (cnt_ecnb t));
      ("cnt_frexmits", J.Int (cnt_frexmits t));
      ("rtt_est_ns", J.Int (rtt_est t));
      ("fin_received", J.Bool (fin_received t));
      ("fin_sent", J.Bool (fin_sent t));
    ]
    @
    (* The recovery object appears only for SACK-class flows: Reno flows
       keep the seed's exact JSON shape (the pinned digests in the arena
       battery and the seed digests compare this output verbatim). *)
    (match t.rec_state.Tas_recovery.State.kind with
    | Tas_recovery.Policy.Reno -> []
    | Tas_recovery.Policy.Sack | Tas_recovery.Policy.Rack_tlp ->
      [ ("recovery", Tas_recovery.State.to_json t.rec_state) ]))
