(* Binary min-heap keyed by (time, seq); the sequence number breaks ties in
   scheduling order, so simultaneous events run deterministically.

   The heap is three parallel [int array]s, so a sift moves only unboxed
   ints and never runs the write barrier. Each queued event owns a slot:
   [actions] holds its closure, [handles] its handle ([no_handle] for
   [post]) and [pos] its heap index, so [cancel] removes it in O(log n).
   Closure and handle are written on insert and cleared when the event
   leaves the heap. The [capacity - size] free slots sit in [slots] at the
   heap indices the heap does not use, [size, capacity). *)

type event = { mutable slot : int }
(* The queued event's slot, or -1 once it fired or was cancelled: an inert
   handle never reaches a recycled slot. *)

let no_handle = { slot = -1 }

type t = {
  mutable clock : Time_ns.t;
  mutable size : int;
  mutable next_seq : int;
  mutable fired : int;
  mutable times : int array;  (* heap order *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;  (* slot order *)
  mutable actions : (unit -> unit) array;
  mutable handles : event array;
}

let create () =
  { clock = 0; size = 0; next_seq = 0; fired = 0; times = [||]; seqs = [||];
    slots = [||]; pos = [||]; actions = [||]; handles = [||] }

let now t = t.clock
let events_fired t = t.fired
let pending t = t.size

let grow t =
  let cap = Array.length t.times in
  let more = max 64 cap in
  let extend a fill = Array.append a (Array.make more fill) in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.append t.slots (Array.init more (fun i -> cap + i));
  t.pos <- extend t.pos 0;
  t.actions <- extend t.actions ignore;
  t.handles <- extend t.handles no_handle

(* The sifts carry the moving element [(time, seq, slot)] in registers,
   shift each element it passes one level into the hole it leaves, and
   write it once where the hole stops. They are the simulator's hottest
   code, so they loop over local arrays and spell every move out: a helper
   for the four stores is not inlined and costs ~10% of [conn_scale]. *)
let sift_up t i time seq slot =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let tp = times.(parent) in
    if tp < time || (tp = time && seqs.(parent) < seq) then moving := false
    else begin
      let h = !hole and sp = slots.(parent) in
      times.(h) <- tp;
      seqs.(h) <- seqs.(parent);
      slots.(h) <- sp;
      pos.(sp) <- h;
      hole := parent
    end
  done;
  let h = !hole in
  times.(h) <- time;
  seqs.(h) <- seq;
  slots.(h) <- slot;
  pos.(slot) <- h

let sift_down t i time seq slot =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let n = t.size in
  let hole = ref i and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= n then moving := false
    else begin
      let c =
        if l + 1 >= n then l
        else
          let tl = times.(l) and tr = times.(l + 1) in
          if tr < tl || (tr = tl && seqs.(l + 1) < seqs.(l)) then l + 1 else l
      in
      let tc = times.(c) in
      if tc < time || (tc = time && seqs.(c) < seq) then begin
        let h = !hole and sc = slots.(c) in
        times.(h) <- tc;
        seqs.(h) <- seqs.(c);
        slots.(h) <- sc;
        pos.(sc) <- h;
        hole := c
      end
      else moving := false
    end
  done;
  let h = !hole in
  times.(h) <- time;
  seqs.(h) <- seq;
  slots.(h) <- slot;
  pos.(slot) <- h

let insert t time action handle =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  let slot = t.slots.(i) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- i + 1;
  t.actions.(slot) <- action;
  if handle != no_handle then begin
    handle.slot <- slot;
    t.handles.(slot) <- handle
  end;
  sift_up t i time seq slot

(* Take the element at heap index [i] out of the heap and free its slot. *)
let remove t i =
  let slot = t.slots.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    (* The last element fills the hole, moving up or else down. *)
    let moved = t.slots.(last) in
    sift_up t i t.times.(last) t.seqs.(last) moved;
    if t.pos.(moved) = i then sift_down t i t.times.(i) t.seqs.(i) moved
  end;
  t.slots.(last) <- slot;
  t.actions.(slot) <- ignore;
  let handle = t.handles.(slot) in
  if handle != no_handle then begin
    handle.slot <- -1;
    t.handles.(slot) <- no_handle
  end

let check_time t fn time =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Sim.%s: time %d is before now %d" fn time t.clock)

let schedule_at t time action =
  check_time t "schedule_at" time;
  let handle = { slot = -1 } in
  insert t time action handle;
  handle

let schedule t dt action =
  if dt < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t (t.clock + dt) action

let post_at t time action =
  check_time t "post_at" time;
  insert t time action no_handle

let post t dt action =
  if dt < 0 then invalid_arg "Sim.post: negative delay";
  post_at t (t.clock + dt) action

let cancel t ev =
  if ev.slot >= 0 then remove t t.pos.(ev.slot)

(* Fire the earliest event. Its slot is freed before the action runs, so
   the action may reuse it, and an action that raises leaves the queue
   consistent. *)
let fire t =
  t.clock <- t.times.(0);
  t.fired <- t.fired + 1;
  let action = t.actions.(t.slots.(0)) in
  remove t 0;
  action ()

let step t = t.size > 0 && (fire t; true)

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    while t.size > 0 && t.times.(0) <= limit do
      fire t
    done;
    t.clock <- max t.clock limit

let periodic t ?start interval f =
  let first = match start with Some s -> s | None -> interval in
  let handle = ref no_handle in
  let rec occurrence () =
    f ();
    handle := schedule t interval occurrence
  in
  handle := schedule t first occurrence;
  handle
