(* Reference kernel for host-speed normalisation. The benchmark runs on
   shared machines whose speed drifts by tens of percent from one second to
   the next; a fixed unit of work timed after each sub-window tracks that
   drift, and host-time metrics are scaled by the window's median
   [run () / nominal_ns]. The kernel is the benchmark's own code, so a
   change to the library never changes it; it allocates nothing and keeps
   its 16 MiB table off the OCaml heap, so the simulator's GC and heap
   figures are untouched. Its mix: random reads and writes over the table,
   a binary-heap sift (the event queue's access pattern) and 1 KiB
   blits. *)

let table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
  Bigarray.Array1.fill t 0;
  t

let heap = Array.make 8192 0
let buf = Bytes.create (1 lsl 16)

(* Host ns one [run] takes on a 2-vCPU 2 GHz x86 machine at its usual
   speed; only ratios between runs matter. *)
let nominal_ns = 10_000_000

let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  x lxor (x lsr 29)

let sift_down () =
  let n = Array.length heap in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
      if heap.(c) < heap.(!i) then begin
        let t = heap.(c) in
        heap.(c) <- heap.(!i);
        heap.(!i) <- t;
        i := c
      end
      else continue := false
    end
  done

(* One fixed unit of work; its host ns. *)
let run () =
  let t0 = Probe.now () in
  let x = ref 0x2545f491 in
  for i = 1 to 160_000 do
    x := mix (!x + i);
    let k = !x land ((1 lsl 21) - 1) in
    table.{k} <- table.{k lxor 0x5555} + i;
    heap.(0) <- !x land 0xffff;
    sift_down ();
    if i land 15 = 0 then
      Bytes.blit buf (!x land 0x7fff) buf ((!x lsr 20) land 0x7fff) 1024
  done;
  Probe.now () - t0

(* How much slower than nominal the machine runs right now. *)
let slowdown () = float_of_int (run ()) /. float_of_int nominal_ns
