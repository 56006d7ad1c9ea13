(* Unit and property tests for the discrete-event engine. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Stats = Tas_engine.Stats
module Topology = Tas_netsim.Topology
module Core = Tas_cpu.Core
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo

let test_event_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule sim 300 (fun () -> order := 3 :: !order));
  ignore (Sim.schedule sim 100 (fun () -> order := 1 :: !order));
  ignore (Sim.schedule sim 200 (fun () -> order := 2 :: !order));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 300 (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (Sim.schedule sim 50 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "FIFO among simultaneous events"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule sim 100 (fun () -> fired := true) in
  Sim.cancel sim ev;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "no live events" 0 (Sim.pending sim)

let test_cancel_after_fire_is_noop () =
  let sim = Sim.create () in
  let ev = Sim.schedule sim 10 ignore in
  ignore (Sim.schedule sim 20 ignore);
  Sim.run sim;
  Sim.cancel sim ev;
  Alcotest.(check int) "live count not corrupted" 0 (Sim.pending sim);
  (* A later event reuses the fired event's queue slot; the stale handle
     must not cancel it. *)
  let fired = ref false in
  ignore (Sim.schedule sim 10 (fun () -> fired := true));
  Sim.cancel sim ev;
  Alcotest.(check int) "later event still queued" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "later event fires" true !fired

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim (i * 100) (fun () -> incr count))
  done;
  Sim.run ~until:550 sim;
  Alcotest.(check int) "only events up to the limit" 5 !count;
  Alcotest.(check int) "clock pinned to limit" 550 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "remaining events run" 10 !count

let test_run_until_never_rewinds () =
  (* An earlier [~until] than the clock must not rewind it, whether or not
     events are still pending; a later [post] fires relative to the
     furthest time already reached. *)
  let sim = Sim.create () in
  let fired_at = ref [] in
  ignore (Sim.schedule sim 1000 (fun () -> fired_at := Sim.now sim :: !fired_at));
  Sim.run ~until:800 sim;
  Sim.run ~until:500 sim;
  Alcotest.(check int) "pending queue: clock holds" 800 (Sim.now sim);
  Sim.post sim 100 (fun () -> fired_at := Sim.now sim :: !fired_at);
  Sim.run sim;
  Alcotest.(check (list int)) "post fires after the reached time" [ 1000; 900 ]
    !fired_at;
  Sim.run ~until:10 sim;
  Alcotest.(check int) "empty queue: clock holds" 1000 (Sim.now sim)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let depth = ref 0 in
  let rec nest n =
    if n > 0 then begin
      incr depth;
      ignore (Sim.schedule sim 10 (fun () -> nest (n - 1)))
    end
  in
  nest 100;
  Sim.run sim;
  Alcotest.(check int) "100 nested events" 100 !depth;
  Alcotest.(check int) "clock advanced 100 steps" 1000 (Sim.now sim)

let test_periodic () =
  let sim = Sim.create () in
  let fires = ref 0 in
  let handle = Sim.periodic sim 100 (fun () -> incr fires) in
  ignore (Sim.schedule sim 1050 (fun () -> Sim.cancel sim !handle));
  Sim.run sim;
  Alcotest.(check int) "10 periodic fires before cancel" 10 !fires

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim (-1) ignore))

let test_many_events_heap () =
  (* Stress the heap with a pseudo-random schedule; verify global order. *)
  let sim = Sim.create () in
  let rng = Rng.create 99 in
  let last = ref (-1) in
  let monotone = ref true in
  for _ = 1 to 10_000 do
    let at = Rng.int rng 1_000_000 in
    ignore
      (Sim.schedule_at sim at (fun () ->
           if Sim.now sim < !last then monotone := false;
           last := Sim.now sim))
  done;
  Sim.run sim;
  Alcotest.(check bool) "events fired in nondecreasing time order" true !monotone

(* Schedules an event whose closure captures a fresh heap block, and
   returns the handle and a weak pointer to the block. Not inlined, so no
   register or stack slot of the caller keeps the block alive. *)
let[@inline never] schedule_capturing sim =
  let weak = Weak.create 1 in
  let captured = Bytes.make 64 'x' in
  Weak.set weak 0 (Some captured);
  let ev =
    Sim.schedule sim (Time_ns.ms 5) (fun () -> ignore (Bytes.length captured))
  in
  (ev, weak)

let test_cancel_drops_closure () =
  (* A cancelled timer must not keep its closure, and what the closure
     holds (a TCB, for an RTO), alive until its deadline. *)
  let sim = Sim.create () in
  let ev, weak = schedule_capturing sim in
  Sim.cancel sim ev;
  Gc.full_major ();
  Alcotest.(check bool) "captured block collected" false (Weak.check weak 0);
  (* The caller's handle stays live, as a TCB's timer field would. *)
  ignore (Sys.opaque_identity (sim, ev))

let test_post_allocates_nothing () =
  (* Steady state: re-posting a persistent thunk allocates no word. *)
  let sim = Sim.create () in
  let rec tick () = Sim.post sim 10 tick in
  for i = 1 to 32 do
    Sim.post sim i tick
  done;
  Sim.run ~until:1_000 sim;
  let fired0 = Sim.events_fired sim in
  let w0 = Gc.minor_words () in
  Sim.run ~until:100_000 sim;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "events in the window" 316_800
    (Sim.events_fired sim - fired0);
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_echo_event_counts () =
  (* A small seeded TAS<->TAS echo run over a lossy link: the engine's
     event count and peak queue depth are part of the model and must not
     move with the queue's implementation. *)
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ~loss_rate:0.01 ~rng:(Rng.create 42) ()
  in
  let host id (ep : Topology.endpoint) =
    let tas = Tas.create sim ~nic:ep.Topology.nic ~config:Config.default () in
    let lt =
      Tas.app tas ~app_cores:[| Core.create sim ~id () |] ~api:Libtas.Sockets
    in
    Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0)
  in
  let server = host 100 net.Topology.a and client = host 101 net.Topology.b in
  Rpc_echo.server server ~port:7 ~msg_size:64 ~app_cycles:250;
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim client ~n:8 ~pipeline:2
    ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
    ~dst_port:7 ~msg_size:64 ~stats ();
  let peak = ref 0 in
  while Sim.now sim < Time_ns.ms 5 do
    ignore (Sim.step sim);
    peak := max !peak (Sim.pending sim)
  done;
  Alcotest.(check int) "RPCs completed" 1836
    (Stats.Counter.value stats.Rpc_echo.completed);
  Alcotest.(check int) "events fired" 19857 (Sim.events_fired sim);
  Alcotest.(check int) "peak pending" 27 !peak

(* --- Differential engine property ---------------------------------------- *)

(* What a fired event does after logging itself. Children only log, so
   every program terminates. *)
type act =
  | Log
  | Post_child of int  (* delay; 0 is a same-instant post *)
  | Sched_child of int
  | Cancel_in of int  (* cancel the k-th handle, mod the handle count *)
  | Raise

type op =
  | Schedule of int * act
  | Schedule_at of int * act  (* offset from now *)
  | Post of int * act
  | Post_at of int * act
  | Cancel of int
  | Step
  | Run_until of int  (* offset from now; negative must not rewind *)

exception Boom

module type ENGINE = sig
  type t
  type event

  val create : unit -> t
  val now : t -> int
  val schedule : t -> int -> (unit -> unit) -> event
  val schedule_at : t -> int -> (unit -> unit) -> event
  val post : t -> int -> (unit -> unit) -> unit
  val post_at : t -> int -> (unit -> unit) -> unit
  val cancel : t -> event -> unit
  val step : t -> bool
  val run : ?until:int -> t -> unit
  val pending : t -> int
  val events_fired : t -> int
end

(* The reference: a list sorted by (time, seq), searched and rebuilt on
   every operation. A handle is the event's sequence number. *)
module Reference : ENGINE = struct
  type ev = { time : int; seq : int; f : unit -> unit }

  type t = {
    mutable now : int;
    mutable queue : ev list;
    mutable next_seq : int;
    mutable fired : int;
  }

  type event = int

  let create () = { now = 0; queue = []; next_seq = 0; fired = 0 }
  let now t = t.now

  let schedule_at t time f =
    assert (time >= t.now);
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let later e = e.time > time in
    let before, after = List.partition (fun e -> not (later e)) t.queue in
    t.queue <- before @ ({ time; seq; f } :: after);
    seq

  let schedule t dt f = schedule_at t (t.now + dt) f
  let post t dt f = ignore (schedule t dt f)
  let post_at t time f = ignore (schedule_at t time f)
  let cancel t seq = t.queue <- List.filter (fun e -> e.seq <> seq) t.queue

  let fire t =
    match t.queue with
    | [] -> false
    | e :: rest ->
      t.queue <- rest;
      t.now <- e.time;
      t.fired <- t.fired + 1;
      e.f ();
      true

  let step = fire

  let run ?until t =
    match until with
    | None -> while fire t do () done
    | Some limit ->
      let due () = match t.queue with e :: _ -> e.time <= limit | [] -> false in
      while due () do
        ignore (fire t)
      done;
      t.now <- max t.now limit

  let pending t = List.length t.queue
  let events_fired t = t.fired
end

type obs = Fired of int * int | State of bool * int * int * int

(* Runs [prog] on engine [E]; the trace is every event fired (id, time)
   and, after each op, the op's result, [now], [pending] and
   [events_fired]. Ids are handed out in scheduling order. *)
let trace (module E : ENGINE) prog =
  let sim = E.create () in
  let log = ref [] and handles = ref [||] and next_id = ref 0 in
  let keep h = handles := Array.append !handles [| h |] in
  let cancel k =
    let n = Array.length !handles in
    if n > 0 then E.cancel sim !handles.(k mod n)
  in
  let rec event act =
    let id = !next_id in
    incr next_id;
    fun () ->
      log := Fired (id, E.now sim) :: !log;
      match act with
      | Log -> ()
      | Post_child dt -> E.post sim dt (event Log)
      | Sched_child dt -> keep (E.schedule sim dt (event Log))
      | Cancel_in k -> cancel k
      | Raise -> raise Boom
  in
  let exec = function
    | Schedule (dt, a) -> keep (E.schedule sim dt (event a)); true
    | Schedule_at (dt, a) ->
      keep (E.schedule_at sim (E.now sim + dt) (event a)); true
    | Post (dt, a) -> E.post sim dt (event a); true
    | Post_at (dt, a) -> E.post_at sim (E.now sim + dt) (event a); true
    | Cancel k -> cancel k; true
    | Step -> E.step sim
    | Run_until dt -> E.run ~until:(E.now sim + dt) sim; true
  in
  List.iter
    (fun op ->
      let r = try exec op with Boom -> false in
      log := State (r, E.now sim, E.pending sim, E.events_fired sim) :: !log)
    prog;
  (* Drain what is left, raising events included. *)
  let rec drain () = try E.run sim with Boom -> drain () in
  drain ();
  List.rev (State (true, E.now sim, E.pending sim, E.events_fired sim) :: !log)

let gen_program =
  let open QCheck.Gen in
  let dt = int_range 0 4 and k = int_range 0 7 in
  let act =
    frequency
      [ (6, return Log); (2, map (fun d -> Post_child d) dt);
        (2, map (fun d -> Sched_child d) dt); (2, map (fun i -> Cancel_in i) k);
        (1, return Raise) ]
  in
  let op =
    frequency
      [ (3, map2 (fun d a -> Schedule (d, a)) dt act);
        (2, map2 (fun d a -> Schedule_at (d, a)) dt act);
        (3, map2 (fun d a -> Post (d, a)) dt act);
        (2, map2 (fun d a -> Post_at (d, a)) dt act);
        (4, map (fun i -> Cancel i) k); (3, return Step);
        (1, map (fun d -> Run_until d) (int_range (-2) 6)) ]
  in
  list_size (int_range 1 80) op

let show_act = function
  | Log -> "log"
  | Post_child d -> Printf.sprintf "post_child %d" d
  | Sched_child d -> Printf.sprintf "sched_child %d" d
  | Cancel_in k -> Printf.sprintf "cancel_in %d" k
  | Raise -> "raise"

let show_op = function
  | Schedule (d, a) -> Printf.sprintf "schedule %d (%s)" d (show_act a)
  | Schedule_at (d, a) -> Printf.sprintf "schedule_at +%d (%s)" d (show_act a)
  | Post (d, a) -> Printf.sprintf "post %d (%s)" d (show_act a)
  | Post_at (d, a) -> Printf.sprintf "post_at +%d (%s)" d (show_act a)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run ~until:+%d" d

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches a sorted-list reference" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_op)
       ~shrink:QCheck.Shrink.list gen_program)
    (fun prog ->
      trace (module Sim : ENGINE) prog = trace (module Reference) prog)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then ok := false;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then ok := false
  done;
  Alcotest.(check bool) "int and float draws in range" true !ok

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~5 (got %.3f)" mean)
    true
    (abs_float (mean -. 5.0) < 0.15)

let test_zipf_skew () =
  let rng = Rng.create 13 in
  let sampler = Rng.Zipf.create ~n:1000 ~s:0.9 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.Zipf.draw rng sampler in
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank-0 frequency should dominate and roughly follow 1/k^0.9. *)
  Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) > counts.(10));
  let ratio = float_of_int counts.(0) /. float_of_int (max 1 counts.(9)) in
  let expected = 10.0 ** 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "zipf ratio plausible (got %.2f, want ~%.2f)" ratio expected)
    true
    (ratio > expected /. 2.0 && ratio < expected *. 2.0)

let test_pareto_bounds () =
  let rng = Rng.create 17 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.pareto_bounded rng ~alpha:1.2 ~min_v:1.0 ~max_v:1000.0 in
    if v < 1.0 || v > 1000.0 +. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "bounded pareto stays in bounds" true !ok

(* --- Stats --------------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min_v s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Summary.max_v s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.Summary.stddev s);
  Alcotest.(check int) "count" 5 (Stats.Summary.count s)

let test_hist_percentiles () =
  let h = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.add h (float_of_int i)
  done;
  let p50 = Stats.Hist.percentile h 50.0 in
  let p99 = Stats.Hist.percentile h 99.0 in
  (* Log buckets have ~2% relative error. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 ~500 (got %.1f)" p50)
    true
    (p50 > 450.0 && p50 < 550.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 ~990 (got %.1f)" p99)
    true
    (p99 > 930.0 && p99 < 1050.0)

let test_hist_empty () =
  let h = Stats.Hist.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Stats.Hist.percentile h 99.0)

let test_series_order () =
  let s = Stats.Series.create () in
  Stats.Series.add s 10 1.0;
  Stats.Series.add s 20 2.0;
  Stats.Series.add s 30 3.0;
  Alcotest.(check int) "length" 3 (Stats.Series.length s);
  let times = List.map fst (Stats.Series.points s) in
  Alcotest.(check (list int)) "insertion order" [ 10; 20; 30 ] times

(* --- QCheck properties ---------------------------------------------------- *)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"hist percentiles are monotone in p" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.0 1e6))
    (fun samples ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) samples;
      let ps = [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ] in
      let vals = List.map (Stats.Hist.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
    (fun samples ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) samples;
      Stats.Summary.mean s >= Stats.Summary.min_v s -. 1e-6
      && Stats.Summary.mean s <= Stats.Summary.max_v s +. 1e-6)

let test_time_pp () =
  let render t = Format.asprintf "%a" Time_ns.pp t in
  Alcotest.(check string) "ns" "999ns" (render 999);
  Alcotest.(check string) "us" "1.50us" (render 1500);
  Alcotest.(check string) "ms" "2.00ms" (render (Time_ns.ms 2));
  Alcotest.(check string) "s" "3.000s" (render (Time_ns.sec 3))

let suite =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_is_noop;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "run ~until never rewinds" `Quick
      test_run_until_never_rewinds;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "periodic" `Quick test_periodic;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "10k random events stay ordered" `Quick test_many_events_heap;
    Alcotest.test_case "cancel drops the closure" `Quick test_cancel_drops_closure;
    Alcotest.test_case "post allocates nothing" `Quick test_post_allocates_nothing;
    Alcotest.test_case "echo event counts pinned" `Quick test_echo_event_counts;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "bounded pareto bounds" `Quick test_pareto_bounds;
    Alcotest.test_case "summary stats" `Quick test_summary;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "empty histogram" `Quick test_hist_empty;
    Alcotest.test_case "series order" `Quick test_series_order;
    Alcotest.test_case "time pretty-printing" `Quick test_time_pp;
    QCheck_alcotest.to_alcotest prop_hist_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_summary_mean_bounded;
  ]
