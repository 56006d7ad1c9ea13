(* Host heap per connection, pinned. An idle flow's payload rings hold no
   backing until data moves, so a freshly established connection costs a
   few hundred words on the host: TAS flow state, libTAS socket, baseline
   TCB and table entries. The pins stop that footprint from silently
   growing back; update them only with a measured reason. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Ring = Tas_buffers.Ring_buffer
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Flow_state = Tas_core.Flow_state
module Flow_table = Tas_core.Flow_table
module Fast_path = Tas_core.Fast_path
module E = Tas_baseline.Tcp_engine

(* A baseline [Tcp_engine] client and a TAS sockets server with default
   configurations. [establish ()] opens one more idle connection and runs
   the simulation until it is established and quiet; [words ()] is the
   reachable host heap of the whole simulated world. *)
let world () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      Libtas.null_handlers);
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  let dst_ip = Nic.ip net.Topology.a.Topology.nic in
  let conns = ref [] in
  let establish () =
    ignore
      (E.connect client ~dst_ip ~dst_port:7
         { E.null_callbacks with E.on_connected = (fun c -> conns := c :: !conns) });
    Sim.run ~until:(Sim.now sim + Time_ns.ms 2) sim
  in
  let words () = Obj.reachable_words (Obj.repr (sim, tas, lt, client)) in
  (tas, conns, establish, words)

let flows tas =
  let acc = ref [] in
  Flow_table.iter (Fast_path.flows (Tas.fast_path tas)) (fun _ f ->
      acc := f :: !acc);
  !acc

let test_idle_flow_footprint () =
  let tas, conns, establish, words = world () in
  (* Warm up past the tables' first growth steps so the delta is one
     connection's own state. *)
  for _ = 1 to 4 do
    establish ()
  done;
  let before = words () in
  establish ();
  let per_conn = words () - before in
  Alcotest.(check int) "five connections established" 5 (List.length !conns);
  let fs = flows tas in
  Alcotest.(check int) "five TAS flows" 5 (List.length fs);
  List.iter
    (fun f ->
      List.iter
        (fun (what, ring, cap) ->
          Alcotest.(check int) (what ^ " logical capacity") cap (Ring.capacity ring);
          Alcotest.(check int) (what ^ " holds no backing while idle") 0
            (Ring.resident_bytes ring))
        [
          ("rx ring", Flow_state.rx_buf f, Config.default.Config.rx_buf_size);
          ("tx ring", Flow_state.tx_buf f, Config.default.Config.tx_buf_size);
        ])
    fs;
  List.iter
    (fun c ->
      Alcotest.(check int) "baseline tx window is the logical capacity"
        E.default_config.E.tx_buf (E.tx_free c))
    !conns;
  (* The TAS flow's heap companions: both payload rings, the out-of-order
     interval and the recovery state (its scalar record lives off-heap in
     the flow arena). *)
  let f = List.hd fs in
  let companions =
    Obj.reachable_words
      (Obj.repr
         ( Flow_state.rx_buf f,
           Flow_state.tx_buf f,
           Flow_state.ooo f,
           Flow_state.recovery f ))
  in
  Alcotest.(check int) "TAS flow companions (words)" 37 companions;
  (* 240: the flow handle names its arena and slot directly, without a
     3-word [Slot] block between them. *)
  Alcotest.(check int) "host words per idle connection, both ends" 240 per_conn

let suite =
  [
    Alcotest.test_case "idle flow host footprint pinned" `Quick
      test_idle_flow_footprint;
  ]
