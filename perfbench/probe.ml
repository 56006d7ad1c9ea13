(* Host-clock attribution from outside the library: the benchmark brackets
   its calls into a layer (and the hooks it interposes) with [enter] /
   [leave], and each layer accumulates its self time, i.e. the bracket's
   duration minus the brackets nested inside it. Nothing here allocates, so
   a traced run's GC behaviour matches the untraced run's. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

(* Layers timed by brackets. *)
let netsim = 0 (* port delivery into a TAS host's NIC *)
let baseline = 1 (* port delivery into a baseline client's NIC *)
let libtas = 2 (* Transport.send on a TAS socket *)
let gen = 3 (* the load generator's own handlers and timers *)
let layers = 4

let self_ns = Array.make layers 0
let calls = Array.make layers 0

(* Open brackets: start time and time already claimed by nested brackets. *)
let max_depth = 32
let starts = Array.make max_depth 0
let child = Array.make max_depth 0
let depth = ref 0

let reset () =
  Array.fill self_ns 0 layers 0;
  Array.fill calls 0 layers 0;
  depth := 0

let enter () =
  let d = !depth in
  starts.(d) <- now ();
  child.(d) <- 0;
  depth := d + 1

let leave layer =
  let d = !depth - 1 in
  depth := d;
  let elapsed = now () - starts.(d) in
  self_ns.(layer) <- self_ns.(layer) + elapsed - child.(d);
  calls.(layer) <- calls.(layer) + 1;
  if d > 0 then child.(d - 1) <- child.(d - 1) + elapsed
