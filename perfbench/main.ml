(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--digests FILE]

   --trace 0 sets the workload up several times (set-up time is the median),
   measures the last set-up for a simulated window proportional to S, and
   reports the end-to-end metrics. --trace 1 runs the same untraced window,
   then a traced one from a fresh set-up, checks both produce the same
   modelled digest, runs the layer replays, and reports the per-layer
   metrics. The last stdout line is the JSON result; the exit code is
   non-zero when any correctness check fails. *)

module Sim = Tas_engine.Sim
module Core = Tas_cpu.Core
module Port = Tas_netsim.Port
module Fault = Tas_netsim.Fault
module Tas = Tas_core.Tas
module Fast_path = Tas_core.Fast_path
module Flow_table = Tas_core.Flow_table
module W = Workload

(* Simulated window per --seconds, sized so one second of window costs
   about one host second on a 2-vCPU 2 GHz x86 machine. *)
let window_ns_per_s = function
  | "rpc_small" -> 20_000_000
  | "bulk_lossy" -> 250_000_000
  | _ (* conn_scale *) -> 2_000_000

(* Set-ups per untraced run; set-up time is their median. *)
let setups = 3

let sub_windows = 32
let trace_slices = 4 (* per sub-window: runtime-event polls in a traced run *)

(* --- Counters ------------------------------------------------------------- *)

type counters = {
  pkt_ops : int;  (** rx data + rx ACK + tx data + ACKs sent, TAS hosts *)
  rx_pkts : int;
  exceptions : int;
  bursts : int;
  burst_pkts : int;
  fp_busy : int;
  sp_busy : int;
  cats : int array;  (** modelled busy ns per [Core.categories] entry *)
  episodes : int;
  selective : int;
  tlp : int;
  timeouts : int;
  ooo : int;
  port_drops : int;
  ecn_marks : int;
  fault_drops : int;
  events : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let pkt_ops (w : W.t) =
  sum
    (fun h ->
      let s = Tas.snapshot h.W.tas in
      s.Tas.rx_data_packets + s.Tas.rx_ack_packets + s.Tas.tx_data_packets
      + s.Tas.acks_sent)
    w.W.hosts

let read (w : W.t) =
  let hosts = w.W.hosts in
  let st h = Fast_path.stats (Tas.fast_path h.W.tas) in
  let rs h = Fast_path.rec_stats (Tas.fast_path h.W.tas) in
  let cats =
    Array.of_list
      (List.map
         (fun cat ->
           sum
             (fun h ->
               List.assoc cat (Tas.cycle_breakdown h.W.tas)
               + Array.fold_left
                   (fun acc c -> acc + Core.busy_ns_of c cat)
                   0 h.W.app_cores)
             hosts)
         Core.categories)
  in
  let gc = Gc.quick_stat () in
  {
    pkt_ops = pkt_ops w;
    rx_pkts =
      sum (fun h -> (st h).Fast_path.rx_data_packets + (st h).rx_ack_packets) hosts;
    exceptions = sum (fun h -> (st h).Fast_path.exceptions_forwarded) hosts;
    bursts = sum (fun h -> (st h).Fast_path.rx_bursts) hosts;
    burst_pkts = sum (fun h -> (st h).Fast_path.rx_burst_packets) hosts;
    fp_busy = sum (fun h -> Tas.fp_busy_ns h.W.tas) hosts;
    sp_busy = sum (fun h -> Core.busy_ns (Tas.sp_core h.W.tas)) hosts;
    cats;
    episodes = sum (fun h -> (rs h).Fast_path.rec_episodes) hosts;
    selective = sum (fun h -> (rs h).Fast_path.rec_selective_retransmits) hosts;
    tlp = sum (fun h -> (rs h).Fast_path.rec_tlp_probes) hosts;
    timeouts = sum (fun h -> (Tas.snapshot h.W.tas).Tas.timeout_retransmits) hosts;
    ooo = sum (fun h -> (st h).Fast_path.ooo_stored) hosts;
    port_drops = sum Port.drops w.W.ports;
    ecn_marks = sum Port.marks w.W.ports;
    fault_drops = sum (fun f -> Fault.total_drops (Fault.counters f)) w.W.faults;
    events = Sim.events_fired w.W.sim;
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    minor_gcs = gc.Gc.minor_collections;
    major_gcs = gc.Gc.major_collections;
  }

(* The modelled outputs: every TAS host's snapshot and recovery counters,
   the generator's outcome counts and each latency sample. Host timers must
   not move any of it. *)
let digest (w : W.t) =
  let b = Buffer.create 4096 in
  let f = Format.formatter_of_buffer b in
  List.iter
    (fun h ->
      let fp = Tas.fast_path h.W.tas in
      let r = Fast_path.rec_stats fp in
      Format.fprintf f "%a|%d %d %d %d %d %d@." Tas.pp_snapshot
        (Tas.snapshot h.W.tas) r.Fast_path.rec_episodes r.rec_sacked_segments
        r.rec_lost_marked r.rec_selective_retransmits r.rec_tlp_probes
        r.rec_reo_timeouts)
    w.W.hosts;
  let g = w.W.gen in
  Format.fprintf f "%d %d %d %d %d %d@." (Sim.now w.W.sim) g.W.issued
    g.W.completed g.W.mismatches (W.failed g) g.W.n_lat;
  for i = 0 to g.W.n_lat - 1 do
    Format.fprintf f "%d " g.W.lat.(i)
  done;
  Format.pp_print_flush f ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- Set-up and window ---------------------------------------------------- *)

type setup = {
  w : W.t;
  setup_s : float;  (** unscaled *)
  connect_ns : int;  (** host ns spent in the connection phase *)
  live_words : int;  (** live heap once every connection is open *)
  bytes_per_flow : float;
      (** live heap growth across connection establishment / flows *)
}

let word_bytes = Sys.word_size / 8

(* Set-up time excludes the two compactions that measure live heap growth
   across connection establishment; every set-up, traced or not, takes
   them, so each window starts from the same heap state. *)
let setup build ~seed ~traced =
  Gc.compact ();
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let t0 = Probe.now () in
  let w = build ~seed ~traced in
  let built = Probe.now () - t0 in
  let live0 = live () in
  let t1 = Probe.now () in
  Sim.run ~until:w.W.connect_ns w.W.sim;
  let connect_ns = Probe.now () - t1 in
  let live1 = live () in
  let t2 = Probe.now () in
  Sim.run ~until:(w.W.connect_ns + w.W.warmup_ns) w.W.sim;
  let warm = Probe.now () - t2 in
  {
    w;
    setup_s = float_of_int (built + connect_ns + warm) /. 1e9;
    connect_ns;
    live_words = live1;
    bytes_per_flow =
      float_of_int ((live1 - live0) * word_bytes)
      /. float_of_int (max 1 w.W.gen.W.established);
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type window = {
  c0 : counters;
  c1 : counters;
  sim_ns : int;
  host_ns : int;
  slowdown : float;  (** median {!Calib.slowdown} after each sub-window *)
}

let run_window (w : W.t) ~sim_ns ~poll =
  W.reset_window w.W.gen;
  let c0 = read w in
  let start = Sim.now w.W.sim and sub = sim_ns / sub_windows in
  let host_ns = ref 0 and slowdowns = ref [] in
  for s = 0 to sub_windows - 1 do
    let t0 = Probe.now () in
    (match poll with
    | None -> Sim.run ~until:(start + ((s + 1) * sub)) w.W.sim
    | Some poll ->
      for k = 1 to trace_slices do
        Sim.run ~until:(start + (s * sub) + (k * sub / trace_slices)) w.W.sim;
        poll ()
      done);
    host_ns := !host_ns + (Probe.now () - t0);
    slowdowns := Calib.slowdown () :: !slowdowns
  done;
  {
    c0;
    c1 = read w;
    sim_ns = sub * sub_windows;
    host_ns = !host_ns;
    slowdown = median !slowdowns;
  }

(* Packet operations per host second over the window, scaled to the
   reference speed. *)
let host_rate win =
  float_of_int (win.c1.pkt_ops - win.c0.pkt_ops)
  /. (float_of_int win.host_ns /. 1e9)
  *. win.slowdown

(* --- GC pauses from Runtime_events ----------------------------------------- *)

module Gc_pauses = struct
  open Runtime_events

  let total = ref 0
  let max_ns = ref 0
  let depth = ref 0
  let t0 = ref 0L
  let lost = ref 0

  let pause = function
    | EV_MINOR | EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Callbacks.create
      ~runtime_begin:(fun _ ts phase ->
        if pause phase then begin
          if !depth = 0 then t0 := Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun _ ts phase ->
        if pause phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then begin
            let d = Int64.to_int (Int64.sub (Timestamp.to_int64 ts) !t0) in
            total := !total + d;
            max_ns := max !max_ns d
          end
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = lazy (start (); create_cursor None)
  let poll () = ignore (read_poll (Lazy.force cursor) callbacks None)

  let reset () =
    poll ();
    total := 0;
    max_ns := 0
end

(* --- Metrics ---------------------------------------------------------------- *)

(* Nearest-rank percentile of the window's latency samples, in us. *)
let percentile (g : W.gen) p =
  let a = Array.sub g.W.lat 0 g.W.n_lat in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1))) /. 1000.0

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let mib words = float_of_int (words * word_bytes) /. 1048576.0

let end_to_end ~setup_s ~live_words (s : setup) (win : window) =
  let d f = f win.c1 - f win.c0 in
  let ops = d (fun c -> c.pkt_ops) in
  let g = s.w.W.gen in
  [
    ("host_pkts_per_s", host_rate win, "1/s");
    ("setup_s", setup_s, "s");
    ( "minor_words_per_pkt",
      (win.c1.minor_words -. win.c0.minor_words) /. float_of_int ops,
      "words" );
    ( "promoted_words_per_pkt",
      (win.c1.promoted_words -. win.c0.promoted_words) /. float_of_int ops,
      "words" );
    ("live_heap_mb", mib live_words, "MiB");
    ( "model_ops_per_s",
      float_of_int g.W.completed /. (float_of_int win.sim_ns /. 1e9),
      "1/s" );
    ("model_p50_us", percentile g 0.50, "us");
    ("model_p99_us", percentile g 0.99, "us");
  ]

let category_metric = function
  | Core.Driver_rx -> Some "cpu.driver_rx_ns_per_op"
  | Core.Tx -> Some "cpu.tx_ns_per_op"
  | Core.Ack_rx -> Some "cpu.ack_rx_ns_per_op"
  | Core.Api -> Some "cpu.api_ns_per_op"
  | Core.App -> Some "cpu.app_ns_per_op"
  | Core.Cc -> Some "cpu.cc_ns_per_op"
  | Core.Conn -> Some "cpu.conn_ns_per_op"
  | Core.Other -> None

(* [a]: the untraced window, whose set-up measured [bytes_per_flow] and
   spent [connect_ns] host ns opening connections; [b]: the traced window
   of an identical set-up [sb]. Counts come from [a], host timings of the
   layers from [b]. *)
let per_layer ~bytes_per_flow ~connect_ns (sb : setup) (a : window)
    (b : window) (r : Replay.result) =
  let w = sb.w in
  let g = w.W.gen and smp = w.W.samples in
  let d f = f a.c1 - f a.c0 in
  let ops = d (fun c -> c.pkt_ops) and done_ops = g.W.completed in
  let rx = d (fun c -> c.rx_pkts) in
  let active =
    sum (fun h -> (Tas.snapshot h.W.tas).Tas.active_fp_cores) w.W.hosts
  in
  let self l = float_of_int Probe.self_ns.(l) in
  let per_call l = if Probe.calls.(l) = 0 then 0.0 else self l /. float_of_int Probe.calls.(l) in
  let window = float_of_int b.host_ns in
  let fp_share = r.Replay.fp_ns_per_pkt *. float_of_int rx in
  let ring_share = r.Replay.ring_ns_per_kb *. float_of_int g.W.tas_bytes /. 1024.0 in
  let attributed =
    self Probe.netsim +. self Probe.baseline +. self Probe.libtas +. self Probe.gen
    +. fp_share +. ring_share
  in
  let shards =
    List.concat_map
      (fun h ->
        let t = Fast_path.flows (Tas.fast_path h.W.tas) in
        List.init (Flow_table.num_shards t) (Flow_table.shard_count t))
      w.W.hosts
  in
  let imbalance =
    let total = sum Fun.id shards and n = List.length shards in
    if total = 0 then 0.0
    else float_of_int (List.fold_left max 0 shards) *. float_of_int n /. float_of_int total
  in
  let cats =
    List.concat
      (List.mapi
         (fun i cat ->
           match category_metric cat with
           | Some name -> [ (name, fdiv (d (fun c -> c.cats.(i))) done_ops, "ns/op") ]
           | None -> [])
         Core.categories)
  in
  [
    ("engine.events_per_pkt", fdiv (d (fun c -> c.events)) ops, "events/pkt");
    ("engine.host_ns_per_event", fdiv a.host_ns (d (fun c -> c.events)), "ns");
    ("engine.pending_max", float_of_int smp.W.pending_max, "events");
    ("gc.minor_collections", float_of_int (d (fun c -> c.minor_gcs)), "count");
    ("gc.major_collections", float_of_int (d (fun c -> c.major_gcs)), "count");
    ("gc.pause_ms_total", float_of_int !Gc_pauses.total /. 1e6, "ms");
    ("gc.pause_ms_max", float_of_int !Gc_pauses.max_ns /. 1e6, "ms");
    ("gc.top_heap_mb", mib (Gc.stat ()).Gc.top_heap_words, "MiB");
    ("netsim.host_ns_per_rx_pkt", per_call Probe.netsim, "ns/pkt");
    ("netsim.port_queue_max_pkts", float_of_int smp.W.port_queue_max, "pkts");
    ("netsim.port_drops", float_of_int (d (fun c -> c.port_drops)), "pkts");
    ("netsim.ecn_marks", float_of_int (d (fun c -> c.ecn_marks)), "pkts");
    ("netsim.fault_drops", float_of_int (d (fun c -> c.fault_drops)), "pkts");
    ("fast_path.pkts_per_burst", fdiv (d (fun c -> c.burst_pkts)) (d (fun c -> c.bursts)), "pkts");
    ("fast_path.host_ns_per_pkt", r.Replay.fp_ns_per_pkt, "ns/pkt");
    ("fast_path.exception_frac", fdiv (d (fun c -> c.exceptions)) rx, "frac");
    ( "fast_path.busy_frac",
      fdiv (d (fun c -> c.fp_busy)) (a.sim_ns * max 1 active),
      "frac" );
  ]
  @ cats
  @ [
      ("flow.host_ns_per_lookup", r.Replay.lookup_ns, "ns");
      ("flow.host_bytes_per_flow", bytes_per_flow, "B");
      ("flow.shard_imbalance", imbalance, "max/mean");
      ( "slow_path.host_us_per_conn",
        float_of_int connect_ns /. 1000.0 /. float_of_int (max 1 g.W.established),
        "us" );
      ("slow_path.timeout_retransmits", float_of_int (d (fun c -> c.timeouts)), "count");
      ( "slow_path.busy_frac",
        fdiv (d (fun c -> c.sp_busy)) (a.sim_ns * List.length w.W.hosts),
        "frac" );
      ("libtas.host_ns_per_send", per_call Probe.libtas, "ns");
      ("libtas.ctx_queue_max", float_of_int smp.W.ctx_queue_max, "events");
      ("buffers.host_ns_per_kb", r.Replay.ring_ns_per_kb, "ns/KiB");
      ("buffers.ooo_stored", float_of_int (d (fun c -> c.ooo)), "count");
      ("recovery.retx_frac", fdiv smp.W.retx_segs smp.W.data_segs, "frac");
      ("recovery.episodes", float_of_int (d (fun c -> c.episodes)), "count");
      ("recovery.selective_retx", float_of_int (d (fun c -> c.selective)), "count");
      ("recovery.tlp_probes", float_of_int (d (fun c -> c.tlp)), "count");
      ("baseline.host_ns_per_rx_pkt", per_call Probe.baseline, "ns/pkt");
      ("gen.host_frac", self Probe.gen /. window, "frac");
      ("trace.overhead_frac", host_rate a /. host_rate b -. 1.0, "frac");
      ("unattributed_frac", 1.0 -. (attributed /. window), "frac");
    ]

(* --- Checks and output ------------------------------------------------------ *)

let checks (w : W.t) (win : window) =
  let g = w.W.gen in
  let d f = f win.c1 - f win.c0 in
  let lossless = w.W.faults = [] in
  let zero name v = (Printf.sprintf "%s = 0 (bypassed)" name, v = 0) in
  [
    ("no failed operations", W.failed g = 0);
    (Printf.sprintf "all %d connections established" w.W.flows, g.W.established = w.W.flows);
    ("p99 has >= 10 samples beyond it", g.W.n_lat >= 1000);
  ]
  @ (if lossless then
       [
         zero "netsim.fault_drops" (d (fun c -> c.fault_drops));
         zero "recovery.episodes" (d (fun c -> c.episodes));
         zero "recovery.selective_retx" (d (fun c -> c.selective));
         zero "recovery.tlp_probes" (d (fun c -> c.tlp));
       ]
     else [ ("netsim.fault_drops > 0 (loss exercised)", d (fun c -> c.fault_drops) > 0) ])

let recorded_digest file key =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ k; v ] when k = key -> Some v
        | _ -> find ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

let json_result ~correct ~attempted ~failed metrics =
  let num v = Printf.sprintf "%.17g" v in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and digests = ref "perfbench/digests.txt" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " rpc_small | bulk_lossy | conn_scale");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured window, ~host seconds");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
      ("--digests", Arg.Set_string digests, " recorded modelled digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let build =
    match List.assoc_opt !workload W.all with
    | Some b -> b
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let sim_ns = !seconds * window_ns_per_s !workload in
  let traced = !trace = 1 in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d\n%!" !workload !seed
    !seconds !trace;
  (* Untraced: the end-to-end run, and the reference for the traced run.
     Heap figures come from the first set-up: later ones start with the
     payload-buffer pool their predecessors filled. The window runs on the
     last. *)
  let first = setup build ~seed:!seed ~traced:false in
  let live_words = first.live_words and bytes_per_flow = first.bytes_per_flow
  and connect_ns = first.connect_ns in
  let sa, setup_times =
    if traced then (first, [ first.setup_s ])
    else begin
      let t = first.setup_s in
      let middle =
        List.init (setups - 2) (fun _ ->
            (setup build ~seed:!seed ~traced:false).setup_s)
      in
      let last = setup build ~seed:!seed ~traced:false in
      (last, (t :: middle) @ [ last.setup_s ])
    end
  in
  let a = run_window sa.w ~sim_ns ~poll:None in
  let setup_s = median setup_times /. a.slowdown in
  Printf.printf "set-up times (unscaled): %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  let e2e = end_to_end ~setup_s ~live_words sa a in
  let digest_a = digest sa.w in
  let g = sa.w.W.gen in
  let attempted = g.W.opened + g.W.issued and failed = W.failed g in
  Printf.printf
    "window: %.1f simulated ms, %.2f host s, %d packet ops, %d ops completed; \
     since start: %d port drops, %d timeout retransmits\n"
    (float_of_int a.sim_ns /. 1e6) (float_of_int a.host_ns /. 1e9)
    (a.c1.pkt_ops - a.c0.pkt_ops) g.W.completed a.c1.port_drops a.c1.timeouts;
  Printf.printf "host_pkts_per_s unscaled = %.6g 1/s; reference slowdown %.3f\n"
    (host_rate a /. a.slowdown) a.slowdown;
  Printf.printf "peak_heap_mb = %.1f MiB (GC top heap so far)\n"
    (mib (Gc.stat ()).Gc.top_heap_words);
  Printf.printf "failed_op_frac = %.6g (failed %d / attempted %d)\n"
    (fdiv failed attempted) failed attempted;
  Printf.printf
    "flow.host_bytes_per_flow = %.1f B (live heap growth per established \
     connection, both ends; the paper's Table-3 flow record is 102 B)\n"
    bytes_per_flow;
  let key = Printf.sprintf "%s/%d/%d" !workload !seed !seconds in
  Printf.printf "model digest %s %s (%s)\n" key digest_a
    (match recorded_digest !digests key with
    | None -> "not recorded"
    | Some d when d = digest_a -> "matches the recorded digest"
    | Some _ -> "differs from the recorded digest");
  let checks = checks sa.w a in
  let metrics, checks =
    if not traced then (e2e, checks)
    else begin
      Gc_pauses.poll ();
      Probe.reset ();
      let sb = setup build ~seed:!seed ~traced:true in
      Gc_pauses.reset ();
      Probe.reset ();
      let b = run_window sb.w ~sim_ns ~poll:(Some Gc_pauses.poll) in
      let digest_b = digest sb.w in
      Printf.printf "traced digest %s\n" digest_b;
      let burst = fdiv (b.c1.burst_pkts - b.c0.burst_pkts) (b.c1.bursts - b.c0.bursts) in
      let r =
        Replay.run ~flows:sb.w.W.flows
          ~burst:(max 1 (min 32 (int_of_float (Float.round burst))))
          ~payload:sb.w.W.seg_bytes ~queues:sb.w.W.rx_queues ~buf_size:sb.w.W.buf_size
      in
      ( per_layer ~bytes_per_flow ~connect_ns sb a b r,
        checks
        @ [
            ("traced digest = untraced digest", digest_b = digest_a);
            ("no runtime events lost", !Gc_pauses.lost = 0);
          ] )
    end
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %16.6g %s\n" name v unit) metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let checks = checks @ [ ("every metric finite", finite) ] in
  List.iter
    (fun (what, ok) -> Printf.printf "check %-44s %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let correct = List.for_all snd checks in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
