(* pcap export round-trip, and slow-path edge cases: listener refusal and
   connect() to a dead port. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Nic = Tas_netsim.Nic
module Tap = Tas_netsim.Tap
module Pcap = Tas_netsim.Pcap
module Packet = Tas_proto.Packet
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Slow_path = Tas_core.Slow_path
module E = Tas_baseline.Tcp_engine
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo

let test_pcap_roundtrip () =
  let sim = Sim.create () in
  let tap = Tap.create () in
  let deliver = Tap.wrap tap sim ignore in
  let tcp =
    {
      Tas_proto.Tcp_header.src_port = 80;
      dst_port = 12345;
      seq = 42;
      ack = 7;
      flags = Tas_proto.Tcp_header.data_flags;
      window = 1000;
      options = Tas_proto.Tcp_header.no_options;
    }
  in
  let mk len =
    Packet.make ~src_mac:1 ~dst_mac:2 ~src_ip:(Tas_proto.Addr.host_ip 1)
      ~dst_ip:(Tas_proto.Addr.host_ip 2) ~tcp ~payload:(Bytes.create len) ()
  in
  ignore (Sim.schedule sim 1_500 (fun () -> deliver (mk 10)));
  ignore (Sim.schedule sim 2_000_000_001 (fun () -> deliver (mk 100)));
  Sim.run sim;
  let image = Pcap.to_bytes (Tap.records tap) in
  let parsed = Pcap.parse image in
  Alcotest.(check int) "two records" 2 (List.length parsed);
  (match parsed with
  | [ a; b ] ->
    Alcotest.(check int) "first timestamp" 1_500 a.Pcap.ts_ns;
    Alcotest.(check int) "second timestamp (past 1s)" 2_000_000_001
      b.Pcap.ts_ns;
    (* Frames re-parse into the original packets with valid checksums. *)
    let p = Packet.of_wire a.Pcap.frame in
    Alcotest.(check bool) "checksum valid" true
      (Packet.tcp_checksum_ok a.Pcap.frame);
    Alcotest.(check int) "payload preserved" 10 (Packet.payload_len p)
  | _ -> Alcotest.fail "expected two records");
  (* File writing works too. *)
  let path = Filename.temp_file "tas" ".pcap" in
  Pcap.write_file path (Tap.records tap);
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "file image identical" (Bytes.length image) len;
  Alcotest.(check bool) "file parses" true
    (List.length (Pcap.parse (Bytes.of_string buf)) = 2)

let test_pcap_rejects_garbage () =
  Alcotest.(check bool) "short file rejected" true
    (try
       ignore (Pcap.parse (Bytes.create 10));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Pcap.parse (Bytes.make 24 'x'));
       false
     with Invalid_argument _ -> true)

let make_tas_pair () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  (sim, net, tas, lt, peer)

let test_connect_to_dead_port_fails () =
  (* TAS connecting to a port nobody listens on: SYN retries, then the
     failure callback fires. *)
  let sim, net, _tas, lt, _peer = make_tas_pair () in
  let failed = ref false in
  ignore
    (Libtas.connect lt ~ctx:0
       ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:4444
       {
         Libtas.null_handlers with
         Libtas.on_connect_failed = (fun _ _ -> failed := true);
       });
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check bool) "connect eventually fails" true !failed

let test_listener_refusal () =
  (* A slow-path listener that refuses connections: the client must not
     establish. *)
  let sim, net, tas, _lt, peer = make_tas_pair () in
  Slow_path.listen (Tas.slow_path tas) ~port:7 (fun _ -> None);
  let connected = ref false in
  ignore
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun _ -> connected := true);
       });
  Sim.run ~until:(Time_ns.ms 300) sim;
  Alcotest.(check bool) "refused connection never establishes" false
    !connected;
  Alcotest.(check int) "no flow installed" 0
    (Slow_path.flow_count (Tas.slow_path tas))

let test_half_close_data_still_flows () =
  (* Client closes its sending side; TAS app can still send until it closes
     (half-close). *)
  let sim, net, _tas, lt, peer = make_tas_pair () in
  let got_at_peer = Buffer.create 64 in
  E.listen peer ~port:1 (fun _ -> E.null_callbacks);
  ignore peer;
  (* TAS listens; when the peer closes, the TAS app sends a final message
     before closing. *)
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_peer_closed =
          (fun sock ->
            ignore (Libtas.send sock (Bytes.of_string "goodbye"));
            Libtas.close sock);
      });
  ignore
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> E.close c);
         E.on_receive = (fun _ d -> Buffer.add_bytes got_at_peer d);
       });
  Sim.run ~until:(Time_ns.sec 1) sim;
  Alcotest.(check string) "data delivered after half-close" "goodbye"
    (Buffer.contents got_at_peer)

let test_multi_context_app () =
  (* Connections spread across several application threads (contexts). *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let cores = Array.init 3 (fun i -> Core.create sim ~id:(100 + i) ()) in
  let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  let next = ref 0 in
  Libtas.listen lt ~port:7
    ~ctx_of_tuple:(fun _ ->
      incr next;
      !next mod 3)
    (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock d -> ignore (Libtas.send sock d));
      });
  let echoes = ref 0 in
  for _ = 1 to 30 do
    ignore
      (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
         {
           E.null_callbacks with
           E.on_connected = (fun c -> ignore (E.send c (Bytes.make 32 'm')));
           E.on_receive = (fun _ _ -> incr echoes);
         })
  done;
  Sim.run ~until:(Time_ns.ms 100) sim;
  Alcotest.(check int) "all connections served" 30 !echoes;
  (* All three app cores did work. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d busy" i)
        true
        (Core.busy_ns c > 0))
    cores

(* An echo RPC run captured on the wire in both directions. Message bodies
   must be a deterministic fill, never uninitialised heap bytes, so two
   identical runs produce byte-identical captures. *)
let rpc_echo_capture () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim () in
  let a = net.Topology.a and b = net.Topology.b in
  let tap = Tap.create () in
  Port.set_deliver b.Topology.uplink
    (Tap.wrap tap sim (fun p -> Nic.input a.Topology.nic p));
  Port.set_deliver a.Topology.uplink
    (Tap.wrap tap sim (fun p -> Nic.input b.Topology.nic p));
  let server = E.create sim a.Topology.nic E.default_config in
  let client = E.create sim b.Topology.nic E.default_config in
  E.attach server;
  E.attach client;
  Rpc_echo.server (Transport.of_engine server) ~port:7 ~msg_size:200
    ~app_cycles:0;
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim (Transport.of_engine client) ~n:3
    ~dst_ip:(Nic.ip a.Topology.nic) ~dst_port:7 ~msg_size:200 ~pipeline:2
    ~stats ();
  Sim.run ~until:(Time_ns.us 300) sim;
  (Pcap.of_tap tap, Tap.records tap)

let test_rpc_echo_pcap_deterministic () =
  let image1, records = rpc_echo_capture () in
  (* Churn the heap between runs so stale bytes would differ. *)
  ignore (Sys.opaque_identity (List.init 10_000 (fun i -> Bytes.make 64 (Char.chr (i land 0xff)))));
  let image2, _ = rpc_echo_capture () in
  let payload_bytes =
    List.fold_left
      (fun acc r -> acc + Packet.payload_len r.Tap.pkt)
      0 records
  in
  Alcotest.(check bool) "requests and replies carried payload" true
    (payload_bytes > 2_000);
  Alcotest.(check bool) "captures are byte-identical" true
    (Bytes.equal image1 image2)

let suite =
  [
    Alcotest.test_case "pcap round-trip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap rejects garbage" `Quick test_pcap_rejects_garbage;
    Alcotest.test_case "rpc echo captures are deterministic" `Quick
      test_rpc_echo_pcap_deterministic;
    Alcotest.test_case "connect to dead port fails" `Quick
      test_connect_to_dead_port_fails;
    Alcotest.test_case "listener refusal" `Quick test_listener_refusal;
    Alcotest.test_case "half-close still delivers" `Quick
      test_half_close_data_still_flows;
    Alcotest.test_case "multi-context application" `Quick test_multi_context_app;
  ]
