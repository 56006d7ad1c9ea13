(* Unit tests for the network simulator: ports, switches, NIC/RSS,
   topologies. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Addr = Tas_proto.Addr
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ipv4 = Tas_proto.Ipv4_header
module Port = Tas_netsim.Port
module Switch = Tas_netsim.Switch
module Nic = Tas_netsim.Nic
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault

let mk_packet ?(src = 1) ?(dst = 2) ?(sport = 1000) ?(dport = 80)
    ?(payload_len = 1000) ?(ecn = Ipv4.Ect0) () =
  let tcp =
    {
      Tcp.src_port = sport;
      dst_port = dport;
      seq = 0;
      ack = 0;
      flags = Tcp.data_flags;
      window = 65535;
      options = Tcp.no_options;
    }
  in
  Packet.make ~src_mac:(Addr.host_mac src) ~dst_mac:(Addr.host_mac dst)
    ~src_ip:(Addr.host_ip src) ~dst_ip:(Addr.host_ip dst) ~ecn ~tcp
    ~payload:(Bytes.create payload_len) ()

let test_port_serialization_delay () =
  let sim = Sim.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:1000 () in
  let arrivals = ref [] in
  Port.set_deliver port (fun _ -> arrivals := Sim.now sim :: !arrivals);
  let pkt = mk_packet ~payload_len:986 () in
  (* wire size = 14 + 20 + 20 + 986 = 1040B = 8320 bits -> 8320ns at 1G. *)
  Alcotest.(check int) "wire size" 1040 (Packet.wire_size pkt);
  Port.enqueue port pkt;
  Sim.run sim;
  Alcotest.(check (list int)) "arrival = serialization + delay" [ 9320 ]
    !arrivals

let test_port_fifo_backlog () =
  let sim = Sim.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:0 () in
  let arrivals = ref [] in
  Port.set_deliver port (fun _ -> arrivals := Sim.now sim :: !arrivals);
  for _ = 1 to 3 do
    Port.enqueue port (mk_packet ~payload_len:986 ())
  done;
  Alcotest.(check int) "3 queued" 3 (Port.queue_len port);
  Sim.run sim;
  Alcotest.(check (list int)) "back-to-back serialization"
    [ 8320; 16640; 24960 ]
    (List.rev !arrivals)

let test_port_tail_drop () =
  let sim = Sim.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:0 ~capacity_pkts:2 () in
  Port.set_deliver port ignore;
  for _ = 1 to 5 do
    Port.enqueue port (mk_packet ())
  done;
  Alcotest.(check int) "3 dropped" 3 (Port.drops port);
  Sim.run sim;
  Alcotest.(check int) "2 transmitted" 2 (Port.tx_packets port)

let test_port_ecn_marking () =
  let sim = Sim.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:0 ~ecn_threshold:2 () in
  let ce = ref 0 in
  Port.set_deliver port (fun p ->
      if p.Packet.ip.Ipv4.ecn = Ipv4.Ce then incr ce);
  for _ = 1 to 5 do
    Port.enqueue port (mk_packet ~ecn:Ipv4.Ect0 ())
  done;
  Sim.run sim;
  (* Queue occupancies at enqueue: 0,1,2,3,4 -> marked above threshold 2. *)
  Alcotest.(check int) "marks counted" 3 (Port.marks port);
  Alcotest.(check int) "CE delivered" 3 !ce

let test_ecn_not_marked_when_not_capable () =
  let sim = Sim.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:0 ~ecn_threshold:0 () in
  Port.set_deliver port ignore;
  Port.enqueue port (mk_packet ~ecn:Ipv4.Not_ect ());
  Sim.run sim;
  Alcotest.(check int) "Not-ECT never marked" 0 (Port.marks port)

let test_switch_routing () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~forwarding_delay:0 () in
  let got_a = ref 0 and got_b = ref 0 in
  let port_a = Port.create sim ~rate_bps:1e10 ~delay:0 () in
  let port_b = Port.create sim ~rate_bps:1e10 ~delay:0 () in
  Port.set_deliver port_a (fun _ -> incr got_a);
  Port.set_deliver port_b (fun _ -> incr got_b);
  let ida = Switch.add_port sw port_a and idb = Switch.add_port sw port_b in
  Switch.add_route sw (Addr.host_ip 1) ida;
  Switch.add_route sw (Addr.host_ip 2) idb;
  Switch.input sw (mk_packet ~dst:1 ());
  Switch.input sw (mk_packet ~dst:2 ());
  Switch.input sw (mk_packet ~dst:3 ());
  Sim.run sim;
  Alcotest.(check int) "to a" 1 !got_a;
  Alcotest.(check int) "to b" 1 !got_b;
  Alcotest.(check int) "unroutable dropped" 1 (Switch.no_route_drops sw)

(* Steady state: a packet's hop port -> switch (forwarding delay) -> port
   allocates no word; the ports' FIFOs and the switch's forwarding FIFO were
   grown by a warm-up batch of the same size. *)
let test_hop_allocates_nothing () =
  let sim = Sim.create () in
  let sw = Switch.create sim () in
  let ingress = Port.create sim ~rate_bps:1e10 ~delay:1000 () in
  let egress = Port.create sim ~rate_bps:1e10 ~delay:1000 () in
  let delivered = ref 0 in
  Port.set_deliver ingress (Switch.input sw);
  Port.set_deliver egress (fun _ -> incr delivered);
  Switch.add_route sw (Addr.host_ip 2) (Switch.add_port sw egress);
  let pkt = mk_packet ~dst:2 () in
  let batch () =
    for _ = 1 to 200 do
      Port.enqueue ingress pkt
    done;
    Sim.run sim
  in
  batch ();
  let w0 = Gc.minor_words () in
  batch ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all delivered" 400 !delivered;
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_flow_hash_allocates_nothing () =
  let pkt = mk_packet ~src:3 ~dst:7 ~sport:4321 ~dport:80 () in
  Alcotest.(check int) "sym_hash of the receiver's tuple"
    (Addr.Four_tuple.sym_hash (Packet.four_tuple_at_receiver pkt))
    (Packet.flow_hash pkt);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Packet.flow_hash pkt))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_switch_ecmp_stable () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~forwarding_delay:0 () in
  let counts = Array.make 4 0 in
  let ids =
    List.init 4 (fun i ->
        let p = Port.create sim ~rate_bps:1e10 ~delay:0 () in
        Port.set_deliver p (fun _ -> counts.(i) <- counts.(i) + 1);
        Switch.add_port sw p)
  in
  Switch.add_ecmp_route sw (Addr.host_ip 9) ids;
  (* Same flow repeatedly: must always take the same path. *)
  for _ = 1 to 20 do
    Switch.input sw (mk_packet ~dst:9 ~sport:5555 ())
  done;
  Sim.run sim;
  let used = Array.to_list counts |> List.filter (fun c -> c > 0) in
  Alcotest.(check (list int)) "one path, all 20 packets" [ 20 ] used;
  (* Different flows spread across paths. *)
  for sport = 1 to 64 do
    Switch.input sw (mk_packet ~dst:9 ~sport ())
  done;
  Sim.run sim;
  let spread = Array.to_list counts |> List.filter (fun c -> c > 0) in
  Alcotest.(check bool) "multiple paths used" true (List.length spread > 1)

let test_nic_rss_steering () =
  let sim = Sim.create () in
  let tx = Port.create sim ~rate_bps:1e10 ~delay:0 () in
  let nic =
    Nic.create sim ~ip:(Addr.host_ip 1) ~mac:(Addr.host_mac 1) ~num_queues:4
      ~tx_port:tx ()
  in
  let per_queue = Array.make 4 0 in
  Nic.set_rx_handler nic (fun ~queue _ ->
      per_queue.(queue) <- per_queue.(queue) + 1);
  (* Same flow always lands on the same queue. *)
  for _ = 1 to 10 do
    Nic.input nic (mk_packet ~dst:1 ~sport:7777 ())
  done;
  let used = Array.to_list per_queue |> List.filter (fun c -> c > 0) in
  Alcotest.(check (list int)) "flow pinned to one queue" [ 10 ] used;
  (* Restrict to 2 active queues: traffic only lands on queues 0-1. *)
  Nic.set_active_queues nic 2;
  Array.fill per_queue 0 4 0;
  for sport = 1 to 100 do
    Nic.input nic (mk_packet ~dst:1 ~sport ())
  done;
  Alcotest.(check int) "queue 2 unused after rescale" 0 per_queue.(2);
  Alcotest.(check int) "queue 3 unused after rescale" 0 per_queue.(3);
  Alcotest.(check bool) "both active queues used" true
    (per_queue.(0) > 0 && per_queue.(1) > 0)

let test_loss_rate () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let delivered = ref 0 in
  let stage = Fault.create sim rng (Fault.uniform_loss 0.3) in
  let deliver = Fault.wrap stage (fun _ -> incr delivered) in
  let n = 20_000 in
  for _ = 1 to n do
    deliver (mk_packet ())
  done;
  let rate = 1.0 -. (float_of_int !delivered /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate ~0.3 (got %.3f)" rate)
    true
    (abs_float (rate -. 0.3) < 0.02);
  let c = Fault.counters stage in
  Alcotest.(check int) "offered counted" n c.Fault.offered;
  Alcotest.(check int) "drops + delivered = offered" n
    (c.Fault.uniform_drops + !delivered);
  Alcotest.(check int) "forwarded matches deliveries" !delivered
    c.Fault.forwarded

let test_fat_tree_connectivity () =
  (* Every host can reach every other host across the fat tree. *)
  let sim = Sim.create () in
  let net = Topology.fat_tree sim ~k:4 ~queues_per_nic:1 () in
  let hosts = net.Topology.ft_hosts in
  let n = Array.length hosts in
  Alcotest.(check int) "k=4 -> 16 hosts" 16 n;
  let received = Array.make n 0 in
  Array.iteri
    (fun i ep ->
      Nic.set_rx_handler ep.Topology.nic (fun ~queue:_ _ ->
          received.(i) <- received.(i) + 1))
    hosts;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Nic.transmit hosts.(src).Topology.nic
          (mk_packet ~src:src ~dst:dst ~sport:(1000 + src)
             ~dport:(2000 + dst) ())
    done
  done;
  Sim.run sim;
  Array.iteri
    (fun i count ->
      Alcotest.(check int)
        (Printf.sprintf "host %d receives from all others" i)
        (n - 1) count)
    received

let test_star_connectivity () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:3 ~queues_per_nic:2 () in
  let at_server = ref 0 in
  Nic.set_rx_handler net.Topology.server.Topology.nic (fun ~queue:_ _ ->
      incr at_server);
  Array.iter
    (fun client ->
      Nic.transmit client.Topology.nic
        (mk_packet ~src:client.Topology.host_id ~dst:0 ()))
    net.Topology.clients;
  Sim.run sim;
  Alcotest.(check int) "server hears all clients" 3 !at_server

let suite =
  [
    Alcotest.test_case "port: serialization + delay" `Quick
      test_port_serialization_delay;
    Alcotest.test_case "port: FIFO backlog" `Quick test_port_fifo_backlog;
    Alcotest.test_case "port: tail drop" `Quick test_port_tail_drop;
    Alcotest.test_case "port: ECN marking" `Quick test_port_ecn_marking;
    Alcotest.test_case "port: Not-ECT unmarked" `Quick
      test_ecn_not_marked_when_not_capable;
    Alcotest.test_case "switch: routing + no-route drop" `Quick
      test_switch_routing;
    Alcotest.test_case "switch: ECMP is flow-stable" `Quick
      test_switch_ecmp_stable;
    Alcotest.test_case "port -> switch -> port hop allocates nothing" `Quick
      test_hop_allocates_nothing;
    Alcotest.test_case "flow hash allocates nothing" `Quick
      test_flow_hash_allocates_nothing;
    Alcotest.test_case "nic: RSS steering + rescale" `Quick
      test_nic_rss_steering;
    Alcotest.test_case "loss injector rate" `Quick test_loss_rate;
    Alcotest.test_case "fat tree all-pairs connectivity" `Quick
      test_fat_tree_connectivity;
    Alcotest.test_case "star connectivity" `Quick test_star_connectivity;
  ]
