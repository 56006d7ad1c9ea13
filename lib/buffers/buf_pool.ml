(* Exact-length payload buffer pool.

   The fast path allocates one payload buffer per transmitted segment; under
   a bulk workload that is the single largest allocation on the packet hot
   path (an MSS-sized Bytes per packet). Workloads send a small set of
   distinct sizes (MSS-sized bulk segments, fixed RPC sizes), so free lists
   are keyed by exact length: a recycled buffer is returned only for a
   request of exactly its size, which keeps [Bytes.length payload] an exact
   segment length everywhere — no slack, no slicing.

   Recycled buffers contain stale bytes; every taker must overwrite the full
   buffer (the fast path fills it with [Ring.read_at ~len]). Reuse is
   therefore invisible to simulation results: pooling on/off, hit or miss,
   the simulated behaviour is bit-identical.

   [local ()] is the per-domain instance: every host of a simulation running
   on one domain shares it, so a receiver recycling a sender's payload
   returns the buffer to the pool the sender draws from. Parallel experiment
   jobs on different domains get disjoint pools — no cross-domain traffic,
   no locks. *)

module Int_tbl = Tas_engine.Int_tbl

type stats = {
  takes : int;
  hits : int;
  gives : int;
  drops : int;  (* gives refused because the size class was full *)
}

type t = {
  classes : bytes list ref Int_tbl.t;
  max_per_class : int;
  mutable counts : int Int_tbl.t;
  mutable takes : int;
  mutable hits : int;
  mutable gives : int;
  mutable drops : int;
}

let create ?(max_per_class = 256) () =
  {
    classes = Int_tbl.create 16;
    max_per_class;
    counts = Int_tbl.create 16;
    takes = 0;
    hits = 0;
    gives = 0;
    drops = 0;
  }

(* Below this size a fresh [Bytes.create] is cheaper than the two hashtable
   operations a pooled round trip costs; small-RPC payloads skip the pool
   entirely. *)
let min_len = 256

let take t len =
  t.takes <- t.takes + 1;
  if len < min_len then (if len = 0 then Bytes.empty else Bytes.create len)
  else
    match Int_tbl.find_opt t.classes len with
    | Some ({ contents = buf :: rest } as cell) ->
      cell := rest;
      Int_tbl.replace t.counts len (Int_tbl.find t.counts len - 1);
      t.hits <- t.hits + 1;
      buf
    | _ -> Bytes.create len

let give t buf =
  let len = Bytes.length buf in
  if len >= min_len then begin
    t.gives <- t.gives + 1;
    let count = Option.value ~default:0 (Int_tbl.find_opt t.counts len) in
    if count >= t.max_per_class then t.drops <- t.drops + 1
    else begin
      (match Int_tbl.find_opt t.classes len with
      | Some cell -> cell := buf :: !cell
      | None -> Int_tbl.replace t.classes len (ref [ buf ]));
      Int_tbl.replace t.counts len (count + 1)
    end
  end

let stats t = { takes = t.takes; hits = t.hits; gives = t.gives; drops = t.drops }

let reset_stats t =
  t.takes <- 0;
  t.hits <- 0;
  t.gives <- 0;
  t.drops <- 0

let key = Domain.DLS.new_key (fun () -> create ())
let local () = Domain.DLS.get key
