(* Binary min-heap keyed by (time, seq). The sequence number breaks ties in
   scheduling order so simultaneous events run deterministically. *)

(* Handle-free entries ([post]/[post_at]) are recycled through a free list:
   they are fire-and-forget, so once fired the record can be reused without
   any ABA hazard. Handle-carrying entries ([schedule]/[schedule_at]) are
   never recycled — a caller may hold the handle indefinitely and cancel it
   late. The write barrier on storing a young action closure into a
   promoted recycled entry once made this a loss; the packet hot path now
   posts persistent (old) thunks, for which the barrier takes the cheap
   same-generation exit. *)
type entry = {
  mutable time : Time_ns.t;
  mutable seq : int;
  mutable action : unit -> unit;
  mutable cancelled : bool;
  recyclable : bool;
}

type event = entry

type t = {
  mutable clock : Time_ns.t;
  mutable heap : entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
  mutable fired : int;
  mutable free : entry array;  (* stack of fired recyclable entries *)
  mutable free_top : int;
}

let dummy =
  { time = 0; seq = -1; action = ignore; cancelled = true; recyclable = false }

(* Bounds the pool: a burst that briefly inflates the event population must
   not pin its entries forever. *)
let max_free = 4096

let create () =
  {
    clock = 0;
    heap = Array.make 64 dummy;
    size = 0;
    next_seq = 0;
    live = 0;
    fired = 0;
    free = Array.make 64 dummy;
    free_top = 0;
  }

let now t = t.clock
let events_fired t = t.fired

let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && precedes t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && precedes t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t entry =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  if t.size > 0 then sift_down t 0;
  top

let schedule_at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %d is before now %d" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let entry = { time; seq; action; cancelled = false; recyclable = false } in
  t.live <- t.live + 1;
  push t entry;
  entry

let schedule t dt action =
  if dt < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t (t.clock + dt) action

let post_at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.post_at: time %d is before now %d" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let entry =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      let e = t.free.(t.free_top) in
      t.free.(t.free_top) <- dummy;
      e.time <- time;
      e.seq <- seq;
      e.action <- action;
      e.cancelled <- false;
      e
    end
    else { time; seq; action; cancelled = false; recyclable = true }
  in
  t.live <- t.live + 1;
  push t entry

let post t dt action =
  if dt < 0 then invalid_arg "Sim.post: negative delay";
  post_at t (t.clock + dt) action

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

let pending t = t.live

let fire t entry =
  (* Mark fired entries as cancelled so a late [cancel] is a harmless no-op. *)
  entry.cancelled <- true;
  t.live <- t.live - 1;
  t.clock <- entry.time;
  t.fired <- t.fired + 1;
  let action = entry.action in
  if entry.recyclable then begin
    (* Recycle before running the action: no handle exists, so nothing can
       observe the entry, and the action itself may immediately reuse it.
       Dropping the closure reference keeps the pool from pinning it. *)
    entry.action <- ignore;
    if t.free_top < max_free then begin
      if t.free_top = Array.length t.free then begin
        let bigger = Array.make (2 * t.free_top) dummy in
        Array.blit t.free 0 bigger 0 t.free_top;
        t.free <- bigger
      end;
      t.free.(t.free_top) <- entry;
      t.free_top <- t.free_top + 1
    end
  end;
  action ()

let step t =
  let rec next () =
    if t.size = 0 then false
    else
      let entry = pop t in
      if entry.cancelled then next ()
      else begin
        fire t entry;
        true
      end
  in
  next ()

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if t.size = 0 then begin
        t.clock <- max t.clock limit;
        continue := false
      end
      else begin
        let top = t.heap.(0) in
        if top.cancelled then ignore (pop t)
        else if top.time > limit then begin
          t.clock <- max t.clock limit;
          continue := false
        end
        else fire t (pop t)
      end
    done

let periodic t ?start interval f =
  let first = match start with Some s -> s | None -> interval in
  let handle = ref dummy in
  let rec occurrence () =
    f ();
    handle := schedule t interval occurrence
  in
  handle := schedule t first occurrence;
  handle
