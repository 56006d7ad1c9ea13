module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Addr = Tas_proto.Addr
module J = Tas_telemetry.Json

type kind = Throughput | Alloc

type metric = { name : string; value : float; units : string; kind : kind }

let kind_name = function Throughput -> "throughput" | Alloc -> "alloc"
let m name value units kind = { name; value; units; kind }

(* --- Harness pieces ----------------------------------------------------- *)

let tas_host sim endpoint =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 131072;
      tx_buf_size = 131072;
    }
  in
  let t = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
  let cores = Array.init 2 (fun i -> Core.create sim ~id:(500 + i) ()) in
  let lt = Tas.app t ~app_cores:cores ~api:Libtas.Sockets in
  (t, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))

let pkt_ops tas =
  let s = Tas.snapshot tas in
  s.Tas.rx_data_packets + s.Tas.rx_ack_packets + s.Tas.tx_data_packets
  + s.Tas.acks_sent

(* Wall-clock + minor-word cost of advancing [sim] by [window] of simulated
   time, normalized per unit returned by [ops]. *)
let timed_window sim ~window ~ops =
  let o0 = ops () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run ~until:(Sim.now sim + window) sim;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = max 1 (ops () - o0) in
  (n, wall, words)

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Three consecutive samples of (rate, words/op), median of each: wall-clock
   on a shared machine is noisy, and the median discards the sample that
   caught a scheduler hiccup. Allocation counts are deterministic across
   samples. *)
let median3 sample =
  let samples = List.init 3 (fun _ -> sample ()) in
  (median (List.map fst samples), median (List.map snd samples))

let median_windows sim ~window ~ops =
  median3 (fun () ->
      let n, wall, words = timed_window sim ~window ~ops in
      (float_of_int n /. wall, words /. float_of_int n))

(* [iters] calls to [f] per sample, each call counting as [per_iter]
   operations. *)
let op_loop ?(per_iter = 1) ~iters f =
  median3 (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      let wall = Unix.gettimeofday () -. t0 in
      let words = Gc.minor_words () -. w0 in
      let n = iters * per_iter in
      (float_of_int n /. wall, words /. float_of_int n))

(* --- Benchmarks --------------------------------------------------------- *)

(* Bulk TAS<->TAS transfer over a 10G link: the fast-path segmentation /
   ACK-processing hot loop. Packet ops = rx data + rx acks + tx data + acks
   sent, summed over both hosts. *)
let bulk ~quick =
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let tas_a, sender = tas_host sim net.Topology.a in
  let tas_b, receiver = tas_host sim net.Topology.b in
  Transport.listen receiver ~port:5001 (fun _ -> Transport.null_handlers);
  let chunk = Bytes.create 16384 in
  for _ = 1 to 16 do
    let rec push conn =
      let n = Transport.send conn chunk in
      if n > 0 then push conn
    in
    Transport.connect sender
      ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:5001
      (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = (fun conn -> push conn);
          Transport.on_sendable = (fun conn -> push conn);
        })
  done;
  Sim.run ~until:(Time_ns.ms 10) sim;
  let rate, words_per =
    median_windows sim
      ~window:(Time_ns.ms (if quick then 4 else 15))
      ~ops:(fun () -> pkt_ops tas_a + pkt_ops tas_b)
  in
  [
    m "bulk_pkt_ops_per_sec" rate "ops/s" Throughput;
    m "bulk_minor_words_per_pkt" words_per "words/op" Alloc;
  ]

(* Pipelined small RPCs TAS<->TAS: per-packet fast-path cost dominated by
   small-segment handling and context notification. *)
let rpc ~quick =
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let _tas_a, clients = tas_host sim net.Topology.a in
  let _tas_b, server = tas_host sim net.Topology.b in
  Rpc_echo.server server ~port:7 ~msg_size:64 ~app_cycles:250;
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim clients ~n:16
    ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:7
    ~msg_size:64 ~pipeline:8 ~stats ();
  Sim.run ~until:(Time_ns.ms 10) sim;
  let rate, _words_per =
    median_windows sim
      ~window:(Time_ns.ms (if quick then 4 else 15))
      ~ops:(fun () -> Stats.Counter.value stats.Rpc_echo.completed)
  in
  [ m "rpc_ops_per_sec" rate "rpc/s" Throughput ]

(* Wire-format serialize + parse round trip (checksum arithmetic included). *)
let wire ~quick =
  let payload = Bytes.make 512 'x' in
  let tcp =
    {
      Tcp_header.src_port = 1234;
      dst_port = 80;
      seq = 7;
      ack = 9;
      flags = Tcp_header.data_flags;
      window = 1024;
      options =
        { Tcp_header.mss = None; wscale = None; timestamp = Some (1, 2);
          sack = [] };
    }
  in
  let pkt =
    Packet.make ~src_mac:(Addr.host_mac 0) ~dst_mac:(Addr.host_mac 1)
      ~src_ip:0x0a000001 ~dst_ip:0x0a000002 ~tcp ~payload ()
  in
  for _ = 1 to 1000 do
    ignore (Packet.of_wire (Packet.to_wire pkt))
  done;
  let rate, words_per =
    op_loop
      ~iters:(if quick then 20_000 else 60_000)
      (fun () -> ignore (Packet.of_wire (Packet.to_wire pkt)))
  in
  [
    m "wire_roundtrips_per_sec" rate "ops/s" Throughput;
    m "wire_minor_words_per_roundtrip" words_per "words/op" Alloc;
  ]

(* Sharded flow-table lookup: the per-packet work of hashing a four-tuple,
   routing through the RSS redirection table to the owning shard, and
   finding the flow record — over a table populated like a busy server
   (4096 flows across 8 shards). Payloads are plain ints so the cost
   measured is the table's, not the record's. *)
let flow_lookup ~quick =
  let module Rss = Tas_shard.Rss_table in
  let module Shards = Tas_shard.Flow_shards in
  let module Four_tuple = Addr.Four_tuple in
  let rss = Rss.create ~num_queues:8 () in
  let shards : int Shards.t = Shards.create ~rss () in
  let n_flows = 4096 in
  let tuples =
    Array.init n_flows (fun i ->
        {
          Four_tuple.local_ip = 0x0a000001;
          local_port = 7;
          peer_ip = 0x0a000100 + (i lsr 12);
          peer_port = 1024 + (i land 0xfff);
        })
  in
  Array.iteri (fun i t -> Shards.add shards t i) tuples;
  (* Stride coprime with the table size: touches every flow while defeating
     any sequential-bucket locality a linear scan would enjoy, like
     independent per-packet arrivals do. *)
  let j = ref 0 in
  let rate, words_per =
    op_loop
      ~iters:(if quick then 200_000 else 600_000)
      (fun () ->
        (match Shards.find shards tuples.(!j) with
        | Some _ -> ()
        | None -> assert false);
        j := (!j + 2049) land (n_flows - 1))
  in
  [
    m "flow_lookup_per_sec" rate "ops/s" Throughput;
    m "flow_lookup_minor_words" words_per "words/op" Alloc;
  ]

(* Vector receive pass driven directly: 32-packet same-flow bursts through
   [Fast_path.process_burst] — flow lookup (memo-amortized), duplicate
   verdict, ACK emission, and the port drain of the emitted ACKs. Measures
   the per-packet cost and allocation of the burst fast path in isolation
   from connection setup and application layers. *)
let burst ~quick =
  let module Fast_path = Tas_core.Fast_path in
  let module Flow_state = Tas_core.Flow_state in
  let module Rate_bucket = Tas_core.Rate_bucket in
  let module Nic = Tas_netsim.Nic in
  let module Four_tuple = Addr.Four_tuple in
  let sim = Sim.create () in
  let spec = Topology.link_10g () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let nic = net.Topology.a.Topology.nic in
  let cores = [| Core.create sim ~id:0 () |] in
  let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
  let bucket =
    Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  let peer_ip = Addr.host_ip 99 and peer_mac = Addr.host_mac 99 in
  let flow =
    Flow_state.create
      ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
      ~opaque:1 ~context:0 ~bucket ~rx_buf_size:65536
      ~tx_buf_size:65536 ~local_port:5001 ~peer_ip ~peer_port:9000 ~peer_mac
      ~tx_iss:1000 ~rx_next:100_000 ~window:65535 ~peer_wscale:0 ()
  in
  let tuple =
    {
      Four_tuple.local_ip = Nic.ip nic;
      local_port = 5001;
      peer_ip;
      peer_port = 9000;
    }
  in
  Fast_path.install_flow fp ~tuple flow;
  (* Stale segments (entirely below [rx_next]): every packet takes the
     duplicate path and answers with an ACK, so the same burst array can be
     replayed indefinitely with stable per-iteration work. *)
  let burst_len = 32 in
  let pkts =
    Array.init burst_len (fun _ ->
        Packet.make ~src_mac:peer_mac ~dst_mac:(Nic.mac nic) ~src_ip:peer_ip
          ~dst_ip:(Nic.ip nic)
          ~tcp:
            {
              Tcp_header.src_port = 9000;
              dst_port = 5001;
              seq = 1000;
              ack = 1000;
              flags = Tcp_header.data_flags;
              window = 65535;
              options =
                { Tcp_header.mss = None; wscale = None;
                  timestamp = Some (1, 1); sack = [] };
            }
          ~payload:(Bytes.create 1448) ())
  in
  let core = cores.(0) in
  for _ = 1 to 100 do
    Fast_path.process_burst fp pkts ~count:burst_len core;
    Sim.run sim
  done;
  let rate, words_per =
    op_loop ~per_iter:burst_len
      ~iters:(if quick then 2_000 else 6_000)
      (fun () ->
        Fast_path.process_burst fp pkts ~count:burst_len core;
        Sim.run sim)
  in
  [
    m "burst_rx_pkts_per_sec" rate "pkts/s" Throughput;
    m "burst_minor_words_per_pkt" words_per "words/op" Alloc;
  ]

(* Event-queue churn, steady state at constant queue depth: 32 chains of
   fire-and-forget [post] events, the shape of the simulator's per-packet
   event storm (serialization, propagation, core dispatch, pacing); the
   same over a queue as deep as [conn_scale]'s, with spread delays so
   inserts sift up as well as pops down; and 32 chains that re-arm a timer
   on every event, cancel plus [schedule] — the baseline TCP engine's RTO
   on each ACK. *)
let events ~quick =
  let churn ~chains ~delay ~rearm =
    let sim = Sim.create () in
    for k = 1 to chains do
      let d = delay k in
      let tick =
        if rearm = 0 then
          let rec tick () = Sim.post sim d tick in
          tick
        else
          let timer = ref (Sim.schedule sim rearm ignore) in
          let rec tick () =
            Sim.cancel sim !timer;
            timer := Sim.schedule sim rearm ignore;
            Sim.post sim d tick
          in
          tick
      in
      Sim.post sim k tick
    done;
    op_loop ~iters:(if quick then 100_000 else 250_000) (fun () ->
        ignore (Sim.step sim))
  in
  let rate, words = churn ~chains:32 ~delay:(fun _ -> 10) ~rearm:0 in
  let deep, _ =
    churn ~chains:12_288 ~rearm:0 ~delay:(fun k ->
        Time_ns.us 100 + (k * 7919 mod 1000))
  in
  let rearm, _ =
    churn ~chains:32 ~delay:(fun _ -> Time_ns.us 1) ~rearm:(Time_ns.us 200)
  in
  [
    m "sim_events_per_sec" rate "events/s" Throughput;
    m "sim_minor_words_per_event" words "words/event" Alloc;
    m "sim_deep_events_per_sec" deep "events/s" Throughput;
    m "sim_rearm_events_per_sec" rearm "events/s" Throughput;
  ]

(* Single fast-path primitives on fixed inputs: the bottom rung of the
   ladder below a packet, a burst and the engine. Throughput only; none
   is in the committed baseline, so none is gated. *)
let primitives ~quick =
  let module Ring = Tas_buffers.Ring_buffer in
  let module Spsc = Tas_buffers.Spsc_queue in
  let module Ooo = Tas_buffers.Ooo_interval in
  let module Rate_bucket = Tas_core.Rate_bucket in
  let tcp =
    {
      Tcp_header.src_port = 1234;
      dst_port = 80;
      seq = 1000;
      ack = 2000;
      flags = Tcp_header.data_flags;
      window = 65535;
      options =
        { Tcp_header.mss = None; wscale = None; timestamp = Some (42, 41);
          sack = [] };
    }
  in
  let packet =
    Packet.make ~src_mac:(Addr.host_mac 1) ~dst_mac:(Addr.host_mac 2)
      ~src_ip:(Addr.host_ip 1) ~dst_ip:(Addr.host_ip 2) ~tcp
      ~payload:(Bytes.create 64) ()
  in
  let wire = Packet.to_wire packet in
  let ring = Ring.create 65536 in
  let chunk = Bytes.create 1460 and scratch = Bytes.create 1460 in
  let spsc = Spsc.create 1024 in
  let ooo = Ooo.create () in
  let bucket =
    Rate_bucket.create (Sim.create ()) (Rate_bucket.Rate 10e9)
      ~burst_bytes:4096
  in
  let iters = if quick then 200_000 else 600_000 in
  let rate name f = m name (fst (op_loop ~iters f)) "ops/s" Throughput in
  [
    rate "checksum_validates_per_sec" (fun () ->
        ignore (Packet.tcp_checksum_ok wire));
    rate "flow_hashes_per_sec" (fun () -> ignore (Packet.flow_hash packet));
    rate "ring_push_pop_1460_per_sec" (fun () ->
        ignore (Ring.push ring chunk ~off:0 ~len:1460);
        ignore (Ring.pop ring ~dst:scratch ~dst_off:0 ~len:1460));
    rate "spsc_push_pop_per_sec" (fun () ->
        ignore (Spsc.try_push spsc 42);
        ignore (Spsc.try_pop spsc));
    rate "ooo_verdicts_per_sec" (fun () ->
        ignore
          (Ooo.handle ooo ~exp:0 ~window:65536 ~seg_start:0 ~seg_len:1460));
    rate "rate_bucket_budgets_per_sec" (fun () ->
        ignore (Rate_bucket.tx_budget bucket ~in_flight:0 ~want:1460));
  ]

let measure ~quick =
  (* Start from a normalized heap, so the measured pass does not inherit
     the warmup pass's grown major heap and pending GC work. *)
  Gc.compact ();
  List.concat
    [ primitives ~quick; bulk ~quick; rpc ~quick; wire ~quick;
      flow_lookup ~quick; burst ~quick; events ~quick ]

(* --- Artifact ----------------------------------------------------------- *)

let metrics_json ms =
  J.Obj
    (List.map
       (fun mt ->
         ( mt.name,
           J.Obj
             [
               ("value", J.Float mt.value);
               ("units", J.Str mt.units);
               ("kind", J.Str (kind_name mt.kind));
             ] ))
       ms)

let artifact_json ~quick ~current ~wall =
  J.Obj
    [
      ("experiment", J.Str "perf");
      ("title", J.Str "Hot-path microbenchmarks (perf-regression gate)");
      ("quick", J.Bool quick);
      ("metrics", metrics_json current);
      ("timing", J.Obj [ ("run_wall_s", J.Float wall) ]);
    ]

let write_artifact j =
  let path = Filename.concat (Run_opts.bench_dir ()) "BENCH_perf.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  path

(* --- Regression gate ----------------------------------------------------- *)

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  ratio : float;
  ok : bool;
}

(* Wall-clock throughput varies wildly across machines (laptop vs CI
   runner), so its band only catches order-of-magnitude collapses.
   Allocation counts per operation are machine-independent on a given
   build, so their band is tight. *)
let default_tol_throughput = 0.75
let default_tol_alloc = 0.15

let check ?(tol_throughput = default_tol_throughput)
    ?(tol_alloc = default_tol_alloc) ~baseline current =
  let base_metrics =
    match J.member "metrics" baseline with Some (J.Obj kv) -> kv | _ -> []
  in
  List.filter_map
    (fun mt ->
      match List.assoc_opt mt.name base_metrics with
      | None -> None (* metric absent from the baseline: not gated *)
      | Some bj -> (
        match Option.bind (J.member "value" bj) J.to_float_opt with
        | None -> None
        | Some b ->
          let ratio = if b > 0.0 then mt.value /. b else 1.0 in
          let ok =
            match mt.kind with
            | Throughput -> mt.value >= b *. (1.0 -. tol_throughput)
            | Alloc -> mt.value <= (b *. (1.0 +. tol_alloc)) +. 1e-9
          in
          Some { metric = mt.name; baseline = b; current = mt.value; ratio; ok }))
    current

let load_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  J.of_string s

(* --- Driver -------------------------------------------------------------- *)

let fnum v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.3e" v
  else Printf.sprintf "%.2f" v

let run ?(quick = false) ?baseline fmt =
  Report.section fmt "Perf: hot-path microbenchmarks";
  let t0 = Unix.gettimeofday () in
  (* Discarded warmup pass: sizes the GC heap and warms code/data caches so
     the measured pass does not pay cold-start costs. *)
  ignore (measure ~quick:true);
  let current = measure ~quick in
  let wall = Unix.gettimeofday () -. t0 in
  Report.table fmt ~header:[ "metric"; "units"; "value" ]
    ~rows:(List.map (fun mt -> [ mt.name; mt.units; fnum mt.value ]) current);
  Format.fprintf fmt "  (%.1fs)@." wall;
  (try
     let path = write_artifact (artifact_json ~quick ~current ~wall) in
     Format.fprintf fmt "  # artifact: %s@." path
   with Sys_error msg ->
     Format.fprintf fmt "  # BENCH_perf.json not written: %s@." msg);
  match baseline with
  | None -> true
  | Some path ->
    let verdicts =
      try check ~baseline:(load_baseline path) current with
      | Sys_error msg ->
        Format.fprintf fmt "  # baseline unreadable (%s): gate skipped@." msg;
        []
      | J.Parse_error msg ->
        Format.fprintf fmt "  # baseline unparsable (%s): gate skipped@." msg;
        []
    in
    Report.section fmt "Perf gate";
    if verdicts = [] then begin
      Format.fprintf fmt "  no gated metrics (empty or missing baseline)@.";
      true
    end
    else begin
      Report.table fmt
        ~header:[ "metric"; "baseline"; "current"; "ratio"; "status" ]
        ~rows:
          (List.map
             (fun v ->
               [
                 v.metric; fnum v.baseline; fnum v.current;
                 Printf.sprintf "%.2fx" v.ratio;
                 (if v.ok then "ok" else "REGRESSION");
               ])
             verdicts);
      let pass = List.for_all (fun v -> v.ok) verdicts in
      Format.fprintf fmt "  perf gate: %s@."
        (if pass then "PASS" else "FAIL");
      pass
    end
