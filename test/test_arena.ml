(* Arena battery: the off-heap {!Flow_arena} is the only backing of
   {!Flow_state}, and this file pins what it must keep producing. Three
   parts:

   - Pinned digests — the same seeded workloads (bulk echo, uniform loss, a
     chaos-style fault schedule, a sharded scale-down) must reproduce an
     md5 over their metrics export, Prometheus export, trace stream, cycle
     breakdown and flow dump. Each pin was the digest of both the arena run
     and the boxed-record run, back when the boxed record was still a
     selectable backing, so the pins carry the old arena == boxed
     guarantee.
   - Property/fuzz tests on the arena itself — alloc/free interleavings
     against a model (no slot aliasing, clean exhaustion, double-free
     rejection), Table-3 field round-trips at the declared offset/width
     including wraparound near 2^32, released handles isolated from
     recycled slots, and random install/remove/lookup/migrate
     interleavings over a sharded fast path.
   - Burst semantics — [Fast_path.process_burst] over N packets must be
     equivalent to N single-packet passes (same ACKs, retransmits, flow
     state), preserve per-flow payload ordering for interleaved flows, and
     handle empty/oversized bursts.

   Plus a JSON-shape regression pinning the [tas_run flows] output. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Four_tuple = Addr.Four_tuple
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ring = Tas_buffers.Ring_buffer
module Nic = Tas_netsim.Nic
module Fault = Tas_netsim.Fault
module Topology = Tas_netsim.Topology
module E = Tas_baseline.Tcp_engine
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Flow_table = Tas_core.Flow_table
module Flow_state = Tas_core.Flow_state
module Flow_arena = Tas_core.Flow_arena
module Rate_bucket = Tas_core.Rate_bucket
module Scenario = Tas_experiments.Scenario
module Rpc_echo = Tas_apps.Rpc_echo
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module J = Tas_telemetry.Json
module Domain_pool = Tas_parallel.Domain_pool

(* --- Pinned digests ---------------------------------------------------- *)

(* One md5 over every observable export, so a single byte of divergence
   anywhere fails the pin. Returns the digest and the trace-event count. *)
let digest tas =
  let events = Trace.drain (Tas.trace tas) in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Metrics.to_json_string ~pretty:true (Tas.metrics tas));
  Buffer.add_string buf (Metrics.to_prometheus (Tas.metrics tas));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%d:%d;" e.Trace.ts
           (Trace.kind_name e.Trace.kind) e.Trace.core e.Trace.flow))
    events;
  List.iter
    (fun (cat, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "%s=%d;" (Core.category_name cat) ns))
    (Tas.cycle_breakdown tas);
  Buffer.add_string buf (J.to_string (Tas.flows tas));
  (Digest.to_hex (Digest.string (Buffer.contents buf)), List.length events)

(* Bulk echo workload (the determinism suite's exchange-heavy run); optional
   fault stages make it the chaos-style schedule. *)
let observe ?fault_ab ?fault_ba ?loss_rate ~seed () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let net =
    Topology.point_to_point sim ?fault_ab ?fault_ba ?loss_rate ~rng
      ~queues_per_nic:8 ()
  in
  let config =
    { Config.default with Config.trace_enabled = true; trace_capacity = 4096 }
  in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let app_core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _sock ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock data -> ignore (Libtas.send sock data));
      });
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  for i = 0 to 7 do
    let remaining = ref (20 + i) in
    let cb =
      {
        E.null_callbacks with
        E.on_connected =
          (fun c -> ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
        E.on_receive =
          (fun c d ->
            ignore d;
            decr remaining;
            if !remaining > 0 then
              ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
      }
    in
    ignore
      (E.connect client ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
         ~dst_port:7 cb)
  done;
  Sim.run ~until:(Time_ns.ms 80) sim;
  digest tas

(* Chaos-style schedule: bursty loss toward TAS, duplication + reordering
   on the return path — the `ch` experiment's "everything at once" shape,
   scaled down to a unit test. *)
let chaos_faults () =
  let fault_ab =
    {
      (Fault.bursty_of_rate ~rate:0.03 ~mean_burst_pkts:3.0) with
      Fault.dup_rate = 0.01;
    }
  in
  let fault_ba =
    {
      Fault.passthrough with
      Fault.dup_rate = 0.02;
      reorder =
        Some
          {
            Fault.reorder_rate = 0.05;
            reorder_window = 3;
            max_hold_ns = 200_000;
          };
    }
  in
  (fault_ab, fault_ba)

(* The three echo runs are independent seeded simulations. They run once,
   on a two-domain pool, so arena slabs are exercised from two domains at
   once; each test then checks its own pin. *)
let echo_runs =
  lazy
    (Domain_pool.with_pool ~jobs:2 (fun pool ->
         Domain_pool.map pool ~f:(fun run -> run ())
           [|
             (fun () -> observe ~seed:7 ());
             (fun () -> observe ~loss_rate:0.02 ~seed:11 ());
             (fun () ->
               let fault_ab, fault_ba = chaos_faults () in
               observe ~fault_ab ~fault_ba ~seed:23 ());
           |]))

(* Each pin below is the md5 that the arena run and the boxed-record run
   both produced for this workload when the boxed record was last a
   selectable backing: the two were byte-identical. *)
let check_echo_pin i pin =
  let md5, events = (Lazy.force echo_runs).(i) in
  Alcotest.(check string) "observation md5 pinned" pin md5;
  Alcotest.(check bool) "some trace events" true (events > 100)

let test_bulk_pin () = check_echo_pin 0 "ec05e4abdec5e337bbe40aa863946403"
let test_loss_pin () = check_echo_pin 1 "61601ab0d76be8f707fcb93e73a1721d"
let test_chaos_pin () = check_echo_pin 2 "e3658b88e3334454f882b3f972e9ac9d"

(* Sharded scale-down: a saturated RPC-echo server on 4 active cores,
   scaled down to 1 mid-run (drain-in-place migration of every live
   flow). *)
let observe_sharded () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:4 () in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:6 ~split:(2, 4)
      ~tas_patch:(fun c -> { c with Config.flow_shards_enabled = true })
      ()
  in
  let tas = Option.get server.Scenario.tas in
  Fast_path.set_active_cores (Tas.fast_path tas) 4;
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size:64
    ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  let transport = Scenario.client_transport sim net.Topology.clients.(0) () in
  Rpc_echo.closed_loop_clients sim transport ~n:16 ~dst_ip:server.Scenario.ip
    ~dst_port:7 ~msg_size:64 ~pipeline:4 ~stagger_ns:2_000 ~stats ();
  ignore
    (Sim.schedule_at sim (Time_ns.ms 4) (fun () ->
         Fast_path.set_active_cores (Tas.fast_path tas) 1));
  Sim.run ~until:(Time_ns.ms 8) sim;
  let s = Tas.snapshot tas in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  let counters =
    Printf.sprintf "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d" s.Tas.flows
      s.Tas.conn_setups s.Tas.rx_data_packets s.Tas.rx_ack_packets
      s.Tas.tx_data_packets s.Tas.acks_sent s.Tas.ooo_stored
      s.Tas.exceptions_forwarded
      (Flow_table.migrated_flows ft)
      (Stats.Counter.value stats.Rpc_echo.completed)
  in
  (Digest.to_hex (Digest.string (counters ^ "\n" ^ J.to_string (Tas.flows tas))),
   ft)

let test_sharded_scale_down_pin () =
  let md5, ft = observe_sharded () in
  Alcotest.(check string) "counters + flows snapshot md5 pinned"
    "708aa36448bd21e2610c6917ce806309" md5;
  (* The scale-down actually migrated live flows onto shard 0. *)
  Alcotest.(check bool) "flows migrated" true
    (Flow_table.migrated_flows ft > 0);
  Alcotest.(check int) "all flows on shard 0" (Flow_table.count ft)
    (Flow_table.shard_count ft 0)

(* --- Arena properties ----------------------------------------------------- *)

(* Random alloc/free interleavings against a model set: allocated slots are
   distinct, exhaustion yields [None] exactly at capacity, live/available
   and [in_use] track the model. *)
let prop_alloc_free_model =
  QCheck.Test.make ~count:200 ~name:"arena alloc/free matches model"
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (fun (a, k) -> Printf.sprintf "%s%d" (if a then "A" else "F") k)
              ops))
       QCheck.Gen.(list_size (int_bound 60) (pair bool (int_bound 31))))
    (fun ops ->
      let cap = 8 in
      let a = Flow_arena.create ~capacity:cap () in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (is_alloc, k) ->
          if is_alloc then
            match Flow_arena.alloc a with
            | Some s ->
              if Hashtbl.mem live s then
                QCheck.Test.fail_reportf "slot %d aliased" s;
              if s < 0 || s >= cap then
                QCheck.Test.fail_reportf "slot %d out of range" s;
              Hashtbl.replace live s ()
            | None ->
              if Hashtbl.length live <> cap then
                QCheck.Test.fail_reportf "spurious exhaustion at %d live"
                  (Hashtbl.length live)
          else
            let n = Hashtbl.length live in
            if n > 0 then begin
              let slots =
                List.sort compare
                  (Hashtbl.fold (fun s () acc -> s :: acc) live [])
              in
              let s = List.nth slots (k mod n) in
              Flow_arena.free a s;
              Hashtbl.remove live s
            end)
        ops;
      Flow_arena.live a = Hashtbl.length live
      && Flow_arena.available a = cap - Hashtbl.length live
      && List.for_all
           (fun s -> Flow_arena.in_use a s = Hashtbl.mem live s)
           (List.init cap Fun.id))

(* --- Table-3 accessors ---------------------------------------------------- *)

(* [Flow_state] owns the typed accessors; [Flow_arena.read]/[write] are the
   one raw (offset, width) path. Fields below are named as in
   {!Flow_arena.field_layout}. [flags] reads and writes the eight named
   flag bits as one byte. A field without a [Flow_state] setter is set at
   [create] (or, for the shadow fields, by [sync_shadow]), so tests write
   it raw. *)
let flag_bits =
  Flow_state.
    [
      (in_recovery, set_in_recovery);
      (rx_notified, set_rx_notified);
      (tx_notified, set_tx_notified);
      (tx_interest, set_tx_interest);
      (tx_timer_armed, set_tx_timer_armed);
      (fin_received, set_fin_received);
      (fin_sent, set_fin_sent);
      (rx_closed, set_rx_closed);
    ]

let get_flags f =
  List.fold_left
    (fun (acc, bit) (get, _) ->
      ((if get f then acc lor (1 lsl bit) else acc), bit + 1))
    (0, 0) flag_bits
  |> fst

let set_flags f v =
  List.iteri (fun bit (_, set) -> set f (v land (1 lsl bit) <> 0)) flag_bits

let getters : (string * (Flow_state.t -> int)) list =
  Flow_state.
    [
      ("opaque", opaque);
      ("seq", seq);
      ("ack", ack);
      ("tx_sent", tx_sent);
      ("window", window);
      ("cnt_ackb", cnt_ackb);
      ("cnt_ecnb", cnt_ecnb);
      ("rtt_est", rtt_est);
      ("ts_recent", ts_recent);
      ("tx_span", tx_span);
      ("rx_span", rx_span);
      ("peer_ip", peer_ip);
      ("local_port", local_port);
      ("peer_port", peer_port);
      ("context", context);
      ("dupack_cnt", dupack_cnt);
      ("cnt_frexmits", cnt_frexmits);
      ("peer_mac", peer_mac);
      ("peer_wscale", peer_wscale);
      ("flags", get_flags);
    ]

let setters : (string * (Flow_state.t -> int -> unit)) list =
  Flow_state.
    [
      ("seq", set_seq);
      ("ack", set_ack);
      ("tx_sent", set_tx_sent);
      ("window", set_window);
      ("cnt_ackb", set_cnt_ackb);
      ("cnt_ecnb", set_cnt_ecnb);
      ("rtt_est", set_rtt_est);
      ("ts_recent", set_ts_recent);
      ("tx_span", set_tx_span);
      ("rx_span", set_rx_span);
      ("context", set_context);
      ("dupack_cnt", set_dupack_cnt);
      ("cnt_frexmits", set_cnt_frexmits);
      ("flags", set_flags);
    ]

(* Shadow fields: no typed accessor, only [sync_shadow] and the allocator
   write them. *)
let shadow_fields =
  [ "ooo_start"; "ooo_len"; "generation"; "rx_head"; "rx_tail"; "tx_head";
    "tx_tail"; "rx_size"; "tx_size" ]

let layout name =
  List.find (fun (n, _, _) -> n = name) Flow_arena.field_layout

let is_span name = name = "tx_span" || name = "rx_span"

let raw_read f name =
  let _, off, width = layout name in
  Flow_arena.read (Flow_state.arena f) (Flow_state.slot f) ~off ~width

let raw_write f name v =
  let _, off, width = layout name in
  Flow_arena.write (Flow_state.arena f) (Flow_state.slot f) ~off ~width v

(* Through [Flow_state] where it has the accessor, else raw. *)
let write_field f name v =
  match List.assoc_opt name setters with
  | Some set -> set f v
  | None -> raw_write f name v

let read_field f name =
  match List.assoc_opt name getters with
  | Some get -> get f
  | None -> raw_read f name

(* What a write of [v] must read back as, given the field's declared byte
   width: wrap at the width, except the signed span fields which
   sign-extend their 32 bits. [~raw] is the zero-extended raw reading. *)
let expected_after_write ?(raw = false) name width v =
  if is_span name && not raw then
    let m = v land 0xFFFF_FFFF in
    if m land 0x8000_0000 <> 0 then m - 0x1_0000_0000 else m
  else if width >= 8 then v
  else v land ((1 lsl (width * 8)) - 1)

(* A flow in [arena] whose create-time fields are all zero. *)
let mk_flow ?(opaque = 0) ?(local_port = 0) ?(peer_ip = 0) ?(peer_port = 0)
    ?(peer_mac = 0) ?(peer_wscale = 0) ?(context = 0) ?(tx_iss = 0)
    ?(rx_next = 0) ?(window = 0) arena =
  let sim = Sim.create () in
  let bucket =
    Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:4096
  in
  Flow_state.create ~arena ~opaque ~context ~bucket ~rx_buf_size:64
    ~tx_buf_size:128 ~local_port ~peer_ip ~peer_port ~peer_mac ~tx_iss
    ~rx_next ~window ~peer_wscale ()

(* The layout table is complete and really is the 102-byte Table-3 record:
   fields sorted by offset, non-overlapping, covering [0, slot_bytes); each
   has a typed getter or is a shadow field. *)
let test_layout_is_table3 () =
  let l = Flow_arena.field_layout in
  Alcotest.(check int) "102-byte record" 102 Flow_arena.slot_bytes;
  Alcotest.(check int)
    "state_bytes agrees" Flow_arena.slot_bytes Flow_state.state_bytes;
  let covered = ref 0 in
  let last_end = ref 0 in
  List.iter
    (fun (name, off, width) ->
      if off < !last_end then
        Alcotest.failf "field %s at %d overlaps previous (ends %d)" name off
          !last_end;
      if off > !last_end then
        Alcotest.failf "gap before field %s at %d (previous ends %d)" name off
          !last_end;
      last_end := off + width;
      covered := !covered + width;
      if (not (List.mem name shadow_fields))
         && not (List.mem_assoc name getters)
      then Alcotest.failf "field %s has no typed getter under test" name)
    l;
  Alcotest.(check int) "fields tile the whole slot" Flow_arena.slot_bytes
    !covered

(* Exhaustive neighbour-isolation check: write a distinct pattern into
   every field of two adjacent slots, then verify every field of both slots
   reads back its own pattern, typed and raw — any offset/width error in
   either path clobbers a neighbour or misreads and fails. *)
let test_field_isolation () =
  let a = Flow_arena.create ~capacity:4 () in
  let f0 = mk_flow a in
  let f1 = mk_flow a in
  let pattern f i = 0x0101_0101_0101 * (i + 1) + Flow_state.slot f in
  let fields =
    List.filter (fun (n, _, _) -> n <> "generation") Flow_arena.field_layout
  in
  List.iter
    (fun f ->
      List.iteri
        (fun i (name, _, _) -> write_field f name (pattern f i))
        fields)
    [ f0; f1 ];
  List.iter
    (fun f ->
      List.iteri
        (fun i (name, _, width) ->
          let label =
            Printf.sprintf "slot %d field %s" (Flow_state.slot f) name
          in
          Alcotest.(check int) label
            (expected_after_write name width (pattern f i))
            (read_field f name);
          Alcotest.(check int) (label ^ " raw")
            (expected_after_write ~raw:true name width (pattern f i))
            (raw_read f name))
        fields)
    [ f0; f1 ]

(* Random single-field round-trips, weighted toward the 2^31/2^32
   wrap boundary. *)
let interesting_int =
  QCheck.Gen.oneof
    [
      QCheck.Gen.(map abs nat);
      QCheck.Gen.int;
      QCheck.Gen.oneofl
        [ 0; 1; -1; 0x7FFF_FFFE; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFE;
          0xFFFF_FFFF; 0x1_0000_0000; 0x1_0000_0001; 0xFFFF; 0x1_0000;
          max_int; min_int ];
    ]

let prop_field_roundtrip =
  let fields =
    List.filter (fun (n, _, _) -> n <> "generation") Flow_arena.field_layout
  in
  let n_fields = List.length fields in
  QCheck.Test.make ~count:500 ~name:"field round-trip at declared width"
    (QCheck.make
       ~print:(fun (f, v) ->
         let name, _, _ = List.nth fields f in
         Printf.sprintf "%s <- %d" name v)
       QCheck.Gen.(pair (int_bound (n_fields - 1)) interesting_int))
    (fun (i, v) ->
      let name, _, width = List.nth fields i in
      let a = Flow_arena.create ~capacity:2 () in
      let f0 = mk_flow a in
      let f1 = mk_flow a in
      let image f = List.init Flow_arena.slot_bytes (fun off ->
          Flow_arena.read a (Flow_state.slot f) ~off ~width:1) in
      let before = image f1 in
      write_field f0 name v;
      read_field f0 name = expected_after_write name width v
      && raw_read f0 name = expected_after_write ~raw:true name width v
      && image f1 = before)

let test_span_sign_extension () =
  let f = mk_flow (Flow_arena.create ~capacity:1 ()) in
  Alcotest.(check int) "tx_span starts at -1" (-1) (Flow_state.tx_span f);
  Alcotest.(check int) "rx_span starts at -1" (-1) (Flow_state.rx_span f);
  Flow_state.set_tx_span f 7;
  Flow_state.set_tx_span f (-1);
  Alcotest.(check int) "tx_span -1 round-trips" (-1) (Flow_state.tx_span f);
  Alcotest.(check int) "stored as u32 0xFFFFFFFF" 0xFFFF_FFFF
    (raw_read f "tx_span");
  Flow_state.set_rx_span f (-1);
  Alcotest.(check int) "rx_span -1 round-trips" (-1) (Flow_state.rx_span f)

let test_flag_bits_independent () =
  let f = mk_flow (Flow_arena.create ~capacity:1 ()) in
  List.iteri
    (fun bit (_, set) ->
      set f true;
      List.iteri
        (fun other (get, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "bit %d after setting %d" other bit)
            (other = bit) (get f))
        flag_bits;
      Alcotest.(check int)
        (Printf.sprintf "flags byte holds bit %d" bit)
        (1 lsl bit) (raw_read f "flags");
      set f false)
    flag_bits;
  Alcotest.(check int) "all clear" 0 (raw_read f "flags")

(* Differential test of both accessor layers against a byte-at-a-time
   reference written here: random writes through [Flow_state]'s setters, its
   flag setters and [Flow_arena.write], with a [release] somewhere in the
   program; afterwards the handle addresses its detached slot, and a new
   flow squats on the freed shared slot. After every step the typed
   getters, the raw reader over every layout field and the record's whole
   byte image must all agree with the model. *)
type arena_op =
  | Set of string * int
  | Raw of string * int
  | Flag of int * bool
  | Release

let ref_write model off width v =
  for i = 0 to width - 1 do
    Bytes.set model (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let ref_read model off width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := !v lor (Char.code (Bytes.get model (off + i)) lsl (8 * i))
  done;
  !v

let ref_typed model name =
  let _, off, width = layout name in
  let v = ref_read model off width in
  if is_span name && v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let prop_accessors_match_reference =
  let set_names = List.map fst setters in
  let raw_names =
    List.filter_map
      (fun (n, _, _) -> if n = "generation" then None else Some n)
      Flow_arena.field_layout
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun n v -> Set (n, v)) (oneofl set_names) interesting_int);
          (3, map2 (fun n v -> Raw (n, v)) (oneofl raw_names) interesting_int);
          (2, map2 (fun b v -> Flag (b, v)) (int_bound 7) bool);
          (1, return Release);
        ])
  in
  let print_op = function
    | Set (n, v) -> Printf.sprintf "set %s %d" n v
    | Raw (n, v) -> Printf.sprintf "raw %s %d" n v
    | Flag (b, v) -> Printf.sprintf "flag %d %b" b v
    | Release -> "release"
  in
  QCheck.Test.make ~count:300 ~name:"accessors match byte-level reference"
    (QCheck.make
       ~print:(fun (opq, ops) ->
         Printf.sprintf "opaque %d: %s" opq
           (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(pair interesting_int (list_size (int_bound 40) op_gen)))
    (fun (opaque, ops) ->
      let arena = Flow_arena.create ~capacity:3 () in
      let _below = mk_flow ~opaque:(-1) arena in
      let f =
        mk_flow ~opaque ~local_port:0xBEEF ~peer_ip:0xC0A8_0102
          ~peer_port:0xFFFF ~peer_mac:0xFEDC_BA98_7654 ~peer_wscale:14
          ~context:0x1234 ~tx_iss:0xFFFF_FFFF ~rx_next:0x8000_0000
          ~window:65535 arena
      in
      let model = Bytes.make Flow_arena.slot_bytes '\x00' in
      List.iter
        (fun (name, v) ->
          let _, off, width = layout name in
          ref_write model off width v)
        [ ("opaque", opaque); ("local_port", 0xBEEF); ("peer_ip", 0xC0A8_0102);
          ("peer_port", 0xFFFF); ("peer_mac", 0xFEDC_BA98_7654);
          ("peer_wscale", 14); ("context", 0x1234); ("seq", 0xFFFF_FFFF);
          ("ack", 0x8000_0000); ("window", 65535); ("tx_span", -1);
          ("rx_span", -1); ("rx_size", 64); ("tx_size", 128) ];
      let squatter = ref None in
      let check step =
        List.iter
          (fun (name, get) ->
            if get f <> ref_typed model name then
              QCheck.Test.fail_reportf "after %s: %s reads %d, reference %d"
                step name (get f) (ref_typed model name))
          getters;
        List.iter
          (fun (name, off, width) ->
            if raw_read f name <> ref_read model off width then
              QCheck.Test.fail_reportf "after %s: raw %s reads %d, reference %d"
                step name (raw_read f name) (ref_read model off width))
          Flow_arena.field_layout;
        for off = 0 to Flow_arena.slot_bytes - 1 do
          let got =
            Flow_arena.read (Flow_state.arena f) (Flow_state.slot f) ~off
              ~width:1
          in
          if got <> Char.code (Bytes.get model off) then
            QCheck.Test.fail_reportf "after %s: byte %d is %d, reference %d"
              step off got (Char.code (Bytes.get model off))
        done
      in
      check "create";
      List.iter
        (fun op ->
          (match op with
          | Set (name, v) ->
            (List.assoc name setters) f v;
            let _, off, width = layout name in
            ref_write model off width v
          | Raw (name, v) ->
            raw_write f name v;
            let _, off, width = layout name in
            ref_write model off width v
          | Flag (bit, v) ->
            (snd (List.nth flag_bits bit)) f v;
            let b = Char.code (Bytes.get model 77) in
            Bytes.set model 77
              (Char.chr
                 (if v then b lor (1 lsl bit) else b land lnot (1 lsl bit)))
          | Release ->
            let was_live = not (Flow_state.released f) in
            Flow_state.release f;
            if was_live then begin
              (* A new flow reuses the freed shared slot and scribbles
                 on it; the released handle must not see it. *)
              let s =
                mk_flow ~opaque:min_int ~tx_iss:0x5A5A_5A5A ~context:0xFFFF
                  arena
              in
              set_flags s 0xFF;
              squatter := Some s
            end);
          (match !squatter with
          | Some s -> Flow_state.set_seq s (Flow_state.seq s + 1)
          | None -> ());
          check (print_op op))
        ops;
      true)

let test_generation_and_reuse () =
  let a = Flow_arena.create ~capacity:1 () in
  let s = Option.get (Flow_arena.alloc a) in
  let g0 = Flow_arena.generation a s in
  Flow_arena.write a s ~off:8 ~width:4 42;
  Flow_arena.free a s;
  Alcotest.(check int) "generation bumped" (g0 + 1) (Flow_arena.generation a s);
  let s' = Option.get (Flow_arena.alloc a) in
  Alcotest.(check int) "single slot reused" s s';
  Alcotest.(check int) "slot zeroed on realloc" 0
    (Flow_arena.read a s' ~off:8 ~width:4);
  Alcotest.(check int)
    "generation survives realloc" (g0 + 1)
    (Flow_arena.generation a s')

let test_free_errors () =
  let a = Flow_arena.create ~capacity:2 () in
  let s = Option.get (Flow_arena.alloc a) in
  Flow_arena.free a s;
  Alcotest.check_raises "double free rejected"
    (Invalid_argument "Flow_arena.free: double free") (fun () ->
      Flow_arena.free a s);
  Alcotest.check_raises "out of range rejected"
    (Invalid_argument "Flow_arena.free: slot out of range") (fun () ->
      Flow_arena.free a 99);
  Alcotest.check_raises "generation of an out-of-range slot rejected"
    (Invalid_argument "Flow_arena.generation: slot out of range") (fun () ->
      ignore (Flow_arena.generation a 99));
  Alcotest.check_raises "generation of a negative slot rejected"
    (Invalid_argument "Flow_arena.generation: slot out of range") (fun () ->
      ignore (Flow_arena.generation a (-1)))

(* Exhaustion through the [Flow_state] layer: creation refuses cleanly
   (no heap fallback) and release makes the slot available again. The
   released handle keeps its own final state even after a new flow reuses
   its slot and writes different values there. *)
let test_flow_state_exhaustion () =
  let sim = Sim.create () in
  let arena = Flow_arena.create ~capacity:2 () in
  let mk i =
    let bucket =
      Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
    in
    Flow_state.create ~arena ~opaque:i ~context:0 ~bucket ~rx_buf_size:4096
      ~tx_buf_size:4096 ~local_port:(5000 + i) ~peer_ip:(Addr.host_ip 9)
      ~peer_port:9000 ~peer_mac:(Addr.host_mac 9) ~tx_iss:1000 ~rx_next:2000
      ~window:65535 ~peer_wscale:0 ()
  in
  let f1 = mk 1 in
  let _f2 = mk 2 in
  let slot1 = Flow_state.slot f1 in
  Alcotest.(check bool) "slot in use" true (Flow_arena.in_use arena slot1);
  Alcotest.(check int) "exhausted" 0 (Flow_arena.available arena);
  (try
     ignore (mk 3);
     Alcotest.fail "third create should raise Arena_exhausted"
   with Flow_state.Arena_exhausted -> ());
  Flow_state.set_fin_sent f1 true;
  Flow_state.set_tx_span f1 17;
  Flow_state.release f1;
  Alcotest.(check bool) "slot freed" false (Flow_arena.in_use arena slot1);
  Alcotest.(check int) "slot returned" 1 (Flow_arena.available arena);
  let f4 = mk 4 in
  Alcotest.(check int) "slot reused" slot1 (Flow_state.slot f4);
  Flow_state.set_seq f4 5555;
  Flow_state.set_fin_sent f4 false;
  Flow_state.set_rx_closed f4 true;
  Flow_state.set_tx_span f4 99;
  (* The released handle still reads its own final state. *)
  Alcotest.(check int) "released handle keeps opaque" 1 (Flow_state.opaque f1);
  Alcotest.(check int) "released handle keeps seq" 1000 (Flow_state.seq f1);
  Alcotest.(check bool) "released handle keeps fin_sent" true
    (Flow_state.fin_sent f1);
  Alcotest.(check bool) "released handle keeps rx_closed" false
    (Flow_state.rx_closed f1);
  Alcotest.(check int) "released handle keeps tx_span" 17
    (Flow_state.tx_span f1);
  Alcotest.(check int) "new flow reads its own seq" 5555 (Flow_state.seq f4);
  Alcotest.(check bool) "f1 released" true (Flow_state.released f1);
  Alcotest.(check bool) "f4 live" false (Flow_state.released f4);
  Flow_state.release f1;
  Alcotest.(check int) "second release is a no-op" 0
    (Flow_arena.available arena);
  Alcotest.(check int) "f4 untouched by second release" 5555
    (Flow_state.seq f4)

(* Random install/remove/lookup/migrate interleavings over a sharded fast
   path with arena-backed flows: table count, arena occupancy, slot
   distinctness and lookup identity must hold after every scale change
   (drain-in-place migration included). *)
let prop_sharded_migration =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun i -> `Install i) (int_bound 23));
          (2, map (fun i -> `Remove i) (int_bound 23));
          (2, map (fun i -> `Lookup i) (int_bound 23));
          (1, map (fun n -> `Scale (1 + (n mod 4))) (int_bound 3));
        ])
  in
  let print_op = function
    | `Install i -> Printf.sprintf "I%d" i
    | `Remove i -> Printf.sprintf "R%d" i
    | `Lookup i -> Printf.sprintf "L%d" i
    | `Scale n -> Printf.sprintf "S%d" n
  in
  QCheck.Test.make ~count:60 ~name:"sharded migrate keeps arena flows intact"
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let net = Topology.point_to_point sim ~queues_per_nic:4 () in
      let nic = net.Topology.a.Topology.nic in
      let cores = Array.init 4 (fun i -> Core.create sim ~id:i ()) in
      let config =
        { Config.default with Config.flow_shards_enabled = true }
      in
      let fp = Fast_path.create sim ~nic ~cores ~config in
      let arena = Flow_arena.create ~capacity:32 () in
      let table = Fast_path.flows fp in
      let model : (int, Flow_state.t) Hashtbl.t = Hashtbl.create 32 in
      let tuple i =
        {
          Four_tuple.local_ip = Nic.ip nic;
          local_port = 7;
          peer_ip = Addr.host_ip 50;
          peer_port = 1024 + i;
        }
      in
      let check_invariants () =
        if Flow_table.count table <> Hashtbl.length model then
          QCheck.Test.fail_reportf "table count %d <> model %d"
            (Flow_table.count table) (Hashtbl.length model);
        if Flow_arena.live arena <> Hashtbl.length model then
          QCheck.Test.fail_reportf "arena live %d <> model %d"
            (Flow_arena.live arena) (Hashtbl.length model);
        let slots = Hashtbl.create 32 in
        Hashtbl.iter
          (fun i f ->
            let s = Flow_state.slot f in
            if Flow_state.released f || not (Flow_arena.in_use arena s) then
              QCheck.Test.fail_reportf "flow %d lost its slot" i;
            if Hashtbl.mem slots s then
              QCheck.Test.fail_reportf "slot %d aliased" s;
            Hashtbl.replace slots s ();
            match Flow_table.find table (tuple i) with
            | Some f' when f' == f -> ()
            | Some _ -> QCheck.Test.fail_reportf "lookup %d found wrong flow" i
            | None -> QCheck.Test.fail_reportf "flow %d missing from table" i)
          model
      in
      List.iter
        (fun op ->
          (match op with
          | `Install i ->
            if not (Hashtbl.mem model i) then begin
              let bucket =
                Rate_bucket.create sim (Rate_bucket.Rate 10e9)
                  ~burst_bytes:65536
              in
              let f =
                Flow_state.create ~arena ~opaque:i ~context:0 ~bucket
                  ~rx_buf_size:1024 ~tx_buf_size:1024 ~local_port:7
                  ~peer_ip:(Addr.host_ip 50) ~peer_port:(1024 + i)
                  ~peer_mac:(Addr.host_mac 50) ~tx_iss:0 ~rx_next:0
                  ~window:65535 ~peer_wscale:0 ()
              in
              Fast_path.install_flow fp ~tuple:(tuple i) f;
              Hashtbl.replace model i f
            end
          | `Remove i -> begin
            match Hashtbl.find_opt model i with
            | None -> ()
            | Some f ->
              Fast_path.remove_flow fp ~tuple:(tuple i);
              Flow_state.release f;
              Hashtbl.remove model i
          end
          | `Lookup i ->
            let found = Flow_table.find table (tuple i) <> None in
            if found <> Hashtbl.mem model i then
              QCheck.Test.fail_reportf "lookup %d disagrees with model" i
          | `Scale n -> Fast_path.set_active_cores fp n);
          check_invariants ())
        ops;
      true)

(* --- Burst semantics ------------------------------------------------------ *)

(* A standalone fast path with manually installed flows, so bursts can be
   driven through [process_burst] directly and compared against
   single-packet passes on a twin stack. *)
type burst_stack = {
  bsim : Sim.t;
  bnic : Nic.t;
  bfp : Fast_path.t;
  bcore : Core.t;
  barena : Flow_arena.t;
}

let mk_stack () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:1 () in
  let nic = net.Topology.a.Topology.nic in
  let cores = [| Core.create sim ~id:0 () |] in
  let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
  { bsim = sim; bnic = nic; bfp = fp; bcore = cores.(0);
    barena = Flow_arena.create ~capacity:8 () }

(* [?recovery] sizes the out-of-order interval set the way the slow path
   does: one interval for Reno, four under a SACK-class policy. *)
let install_flow ?(recovery = Tas_recovery.Policy.Reno) st ~opaque
    ~local_port ~rx_next ~tx_iss =
  let bucket =
    Rate_bucket.create st.bsim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  let ooo_ranges = if recovery = Tas_recovery.Policy.Reno then 1 else 4 in
  let flow =
    Flow_state.create ~arena:st.barena ~recovery ~ooo_ranges ~opaque ~context:0 ~bucket
      ~rx_buf_size:65536
      ~tx_buf_size:65536 ~local_port ~peer_ip:(Addr.host_ip 99)
      ~peer_port:9000 ~peer_mac:(Addr.host_mac 99) ~tx_iss ~rx_next
      ~window:65535 ~peer_wscale:0 ()
  in
  let tuple =
    {
      Four_tuple.local_ip = Nic.ip st.bnic;
      local_port;
      peer_ip = Addr.host_ip 99;
      peer_port = 9000;
    }
  in
  Fast_path.install_flow st.bfp ~tuple flow;
  flow

let mk_pkt st ~dst_port ~seq ~ack ~flags ~payload =
  Packet.make ~src_mac:(Addr.host_mac 99) ~dst_mac:(Nic.mac st.bnic)
    ~src_ip:(Addr.host_ip 99) ~dst_ip:(Nic.ip st.bnic)
    ~tcp:
      {
        Tcp.src_port = 9000;
        dst_port;
        seq;
        ack;
        flags;
        window = 65535;
        options =
          { Tcp.mss = None; wscale = None; timestamp = Some (1, 1); sack = [] };
      }
    ~payload ()

(* Everything single-vs-burst equivalence must agree on, excluding the
   burst-shape counters themselves (rx_bursts/rx_burst_packets are the one
   legitimate difference). *)
let burst_digest st flows =
  let s = Fast_path.stats st.bfp in
  Printf.sprintf
    "rxd=%d rxa=%d txd=%d acks=%d ooo=%d drops=%d frex=%d exc=%d mal=%d \
     nic_tx=%d | %s"
    s.Fast_path.rx_data_packets s.Fast_path.rx_ack_packets
    s.Fast_path.tx_data_packets s.Fast_path.acks_sent s.Fast_path.ooo_stored
    s.Fast_path.payload_drops s.Fast_path.fast_retransmits
    s.Fast_path.exceptions_forwarded s.Fast_path.malformed_drops
    (Nic.tx_packets st.bnic)
    (String.concat ","
       (List.map (fun f -> J.to_string (Flow_state.to_json f)) flows))

(* The shared scenario: two interleaved flows with in-order data, an
   out-of-order segment and its gap-filler, a stale duplicate, and a
   dup-ACK run that must trigger exactly one fast retransmit. [packets]
   rebuilds the identical arrival sequence on any stack. *)
let scenario_packets st =
  let seg port base i = mk_pkt st ~dst_port:port ~seq:(base + (i * 500)) ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 500 (Char.chr (65 + i)))
  in
  let pure_ack = mk_pkt st ~dst_port:5001 ~seq:3000 ~ack:1000
      ~flags:Tcp.ack_flags ~payload:Bytes.empty
  in
  [|
    seg 5001 100_000 0;
    seg 5002 200_000 0;
    seg 5001 100_000 1;
    seg 5002 200_000 1;
    seg 5001 100_000 0 (* stale duplicate *);
    seg 5001 100_000 3 (* out of order: skips segment 2 *);
    seg 5001 100_000 2 (* fills the gap *);
    seg 5002 200_000 2;
    pure_ack;
    pure_ack;
    pure_ack;
    pure_ack (* 3 duplicate ACKs -> one fast retransmit *);
  |]

(* Builds the stack, preloads flow A's transmit buffer (so the dup-ACK run
   has sent-but-unacked bytes to retransmit), then lets [drive] feed the
   scenario packets. Each phase runs 1 ms of simulated time: enough to
   drain every core and link event, and short of the 20 ms RACK-TLP probe
   timeout, which re-arms for as long as data stays unacked. *)
let run_scenario ?recovery drive =
  let st = mk_stack () in
  let a = install_flow ?recovery st ~opaque:1 ~local_port:5001
      ~rx_next:100_000 ~tx_iss:1000
  in
  let b = install_flow ?recovery st ~opaque:2 ~local_port:5002
      ~rx_next:200_000 ~tx_iss:2000
  in
  let settle () = Sim.run ~until:(Sim.now st.bsim + Time_ns.ms 1) st.bsim in
  ignore
    (Ring.push (Flow_state.tx_buf a) (Bytes.make 2000 'T') ~off:0 ~len:2000);
  Fast_path.notify_tx st.bfp a;
  settle ();
  drive st (scenario_packets st);
  settle ();
  (burst_digest st [ a; b ], st, a, b)

let one_burst st pkts =
  Fast_path.process_burst st.bfp pkts ~count:(Array.length pkts) st.bcore

let singles st pkts =
  Array.iter
    (fun p -> Fast_path.process_burst st.bfp [| p |] ~count:1 st.bcore)
    pkts

(* Under every recovery policy: the dup-ACK run goes through the one
   [process_ack], whose verdict (Reno's go-back-N rewind or the SACK-class
   scoreboard) must not depend on how arrivals are batched. *)
let test_burst_equals_singles () =
  List.iter
    (fun recovery ->
      let name = Tas_recovery.Policy.name recovery in
      let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
      let d_burst, st_burst, _, _ =
        run_scenario ~recovery one_burst
      in
      let d_single, st_single, _, _ =
        run_scenario ~recovery singles
      in
      Alcotest.(check string) (name ^ ": burst == N singles") d_single d_burst;
      (* The scenario really exercised the interesting paths. *)
      let s = Fast_path.stats st_burst.bfp in
      check_int "one ooo store" 1 s.Fast_path.ooo_stored;
      check_int "one fast retransmit" 1 s.Fast_path.fast_retransmits;
      Alcotest.(check bool) (name ^ ": acks generated") true
        (s.Fast_path.acks_sent >= 8);
      (* And the burst run took a single vector pass where the singles run
         took one per packet. *)
      check_int "one vector pass" 1 s.Fast_path.rx_bursts;
      check_int "singles: one pass per packet"
        (Array.length (scenario_packets st_single))
        (Fast_path.stats st_single.bfp).Fast_path.rx_bursts)
    Tas_recovery.Policy.all

(* Per-flow payload ordering under an interleaved burst: each flow's
   receive ring must hold its own segments in send order. *)
let test_burst_interleave_ordering () =
  let st = mk_stack () in
  let a = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let b = install_flow st ~opaque:2 ~local_port:5002 ~rx_next:200_000
      ~tx_iss:2000
  in
  let seg port base i = mk_pkt st ~dst_port:port ~seq:(base + (i * 4)) ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 4 (Char.chr (97 + i)))
  in
  let pkts =
    Array.init 12 (fun k ->
        if k mod 2 = 0 then seg 5001 100_000 (k / 2)
        else seg 5002 200_000 (k / 2))
  in
  Fast_path.process_burst st.bfp pkts ~count:12 st.bcore;
  Sim.run st.bsim;
  let drain flow =
    let ring = Flow_state.rx_buf flow in
    let n = Ring.used ring in
    let buf = Bytes.create n in
    ignore (Ring.pop ring ~dst:buf ~dst_off:0 ~len:n);
    Bytes.to_string buf
  in
  Alcotest.(check string) "flow A in order" "aaaabbbbccccddddeeeeffff"
    (drain a);
  Alcotest.(check string) "flow B in order" "aaaabbbbccccddddeeeeffff"
    (drain b)

let test_burst_empty_and_oversized () =
  let st = mk_stack () in
  let _ = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let before = burst_digest st [] in
  Fast_path.process_burst st.bfp [||] ~count:0 st.bcore;
  Alcotest.(check string) "empty burst is a no-op" before (burst_digest st []);
  Alcotest.(check int) "no vector pass counted" 0
    (Fast_path.stats st.bfp).Fast_path.rx_bursts;
  let pkt = mk_pkt st ~dst_port:5001 ~seq:100_000 ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 4 'x')
  in
  Alcotest.check_raises "oversized count rejected"
    (Invalid_argument "Fast_path.process_burst: count out of range") (fun () ->
      Fast_path.process_burst st.bfp [| pkt |] ~count:2 st.bcore);
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Fast_path.process_burst: count out of range") (fun () ->
      Fast_path.process_burst st.bfp [| pkt |] ~count:(-1) st.bcore)

(* --- JSON shape regression ------------------------------------------------ *)

let obj_keys = function
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "expected a JSON object"

let test_flows_json_shape () =
  let st = mk_stack () in
  let flow = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  Alcotest.(check (list string))
    "Flow_state.to_json key order pinned"
    [
      "opaque"; "context"; "peer"; "local_port"; "seq"; "ack"; "snd_una";
      "tx_sent"; "tx_avail"; "tx_buf_used"; "tx_buf_free"; "rx_buf_used";
      "rx_buf_free"; "window"; "dupack_cnt"; "in_recovery"; "bucket"; "ooo";
      "cnt_ackb"; "cnt_ecnb"; "cnt_frexmits"; "rtt_est_ns"; "fin_received";
      "fin_sent";
    ]
    (obj_keys (Flow_state.to_json flow));
  (* Full-stack snapshot: top-level shape of `tas_run flows`. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  Alcotest.(check (list string))
    "Tas.flows top-level keys pinned"
    [ "now_ns"; "recovery_policy"; "count"; "shards"; "flows"; "lifecycle" ]
    (obj_keys (Tas.flows tas))

let suite =
  [
    Alcotest.test_case "bulk: arena == boxed" `Quick test_bulk_pin;
    Alcotest.test_case "bulk + loss: arena == boxed" `Quick test_loss_pin;
    Alcotest.test_case "chaos schedule: arena == boxed" `Quick test_chaos_pin;
    Alcotest.test_case "sharded scale-down: arena == boxed" `Quick
      test_sharded_scale_down_pin;
    QCheck_alcotest.to_alcotest prop_alloc_free_model;
    Alcotest.test_case "layout tiles the 102-byte record" `Quick
      test_layout_is_table3;
    Alcotest.test_case "adjacent-slot field isolation" `Quick
      test_field_isolation;
    QCheck_alcotest.to_alcotest prop_field_roundtrip;
    QCheck_alcotest.to_alcotest prop_accessors_match_reference;
    Alcotest.test_case "span fields sign-extend" `Quick
      test_span_sign_extension;
    Alcotest.test_case "flag bits independent" `Quick
      test_flag_bits_independent;
    Alcotest.test_case "generation bump and slot reuse" `Quick
      test_generation_and_reuse;
    Alcotest.test_case "double free / out of range rejected" `Quick
      test_free_errors;
    Alcotest.test_case "exhaustion refuses cleanly via Flow_state" `Quick
      test_flow_state_exhaustion;
    QCheck_alcotest.to_alcotest prop_sharded_migration;
    Alcotest.test_case "burst == N singles (arena)" `Quick
      test_burst_equals_singles;
    Alcotest.test_case "interleaved burst preserves per-flow order" `Quick
      test_burst_interleave_ordering;
    Alcotest.test_case "empty and oversized bursts" `Quick
      test_burst_empty_and_oversized;
    Alcotest.test_case "flows JSON shape pinned" `Quick test_flows_json_shape;
  ]
