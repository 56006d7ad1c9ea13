(* Layer replays: loops over one layer's public entry point, shaped by the
   end-to-end run (burst depth, flow count, segment size, ring size), that
   give the host cost per operation of layers the simulator only calls
   from inside its own events. *)

module Sim = Tas_engine.Sim
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Config = Tas_core.Config
module Fast_path = Tas_core.Fast_path
module Flow_state = Tas_core.Flow_state
module Flow_table = Tas_core.Flow_table
module Flow_arena = Tas_core.Flow_arena
module Rate_bucket = Tas_core.Rate_bucket
module Ring_buffer = Tas_buffers.Ring_buffer
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Addr = Tas_proto.Addr

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median over [reps] timed passes of [f ()], each pass repeating it in
   batches of 64 until [min_ns] have elapsed; host ns per call. *)
let per_call ?(reps = 5) ?(min_ns = 20_000_000) f =
  for _ = 1 to 100 do
    f ()
  done;
  median
    (List.init reps (fun _ ->
         let t0 = Probe.now () and n = ref 0 in
         while Probe.now () - t0 < min_ns do
           for _ = 1 to 64 do
             f ()
           done;
           n := !n + 64
         done;
         float_of_int (Probe.now () - t0) /. float_of_int !n))

type result = {
  fp_ns_per_pkt : float;  (** [Fast_path.process_burst], per packet *)
  lookup_ns : float;  (** [Flow_table.find] *)
  ring_ns_per_kb : float;  (** [Ring_buffer.push] + [pop], per KiB *)
}

(* [flows] established flows on a fast path with [queues] RSS queues; bursts
   of [burst] data segments of [payload] bytes spread over consecutive
   flows. The segments are stale (below [rx_next]), so every pass takes the
   same duplicate-segment path and answers with an ACK — stable work that
   can be replayed without advancing flow state; payload copies are left to
   the ring-buffer replay. *)
let run ~flows ~burst ~payload ~queues ~buf_size =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:queues () in
  let nic = net.Topology.a.Topology.nic in
  let peer = net.Topology.b.Topology.nic in
  let cores = Array.init queues (fun i -> Core.create sim ~id:i ()) in
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = queues;
      flow_arena_capacity = flows;
    }
  in
  let fp = Fast_path.create sim ~nic ~cores ~config in
  let arena = Flow_arena.create ~capacity:flows () in
  let tuple i =
    {
      Addr.Four_tuple.local_ip = Nic.ip nic;
      local_port = 7;
      peer_ip = Nic.ip peer;
      peer_port = 1024 + i;
    }
  in
  let tuples = Array.init flows tuple in
  Array.iteri
    (fun i t ->
      let bucket =
        Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
      in
      Fast_path.install_flow fp ~tuple:t
        (Flow_state.create ~arena ~opaque:(i + 1) ~context:0 ~bucket
           ~rx_buf_size:2048 ~tx_buf_size:2048 ~local_port:7
           ~peer_ip:(Nic.ip peer) ~peer_port:(1024 + i) ~peer_mac:(Nic.mac peer)
           ~tx_iss:1000 ~rx_next:100_000 ~window:65535 ~peer_wscale:0 ()))
    tuples;
  let segment i =
    Packet.make ~src_mac:(Nic.mac peer) ~dst_mac:(Nic.mac nic)
      ~src_ip:(Nic.ip peer) ~dst_ip:(Nic.ip nic)
      ~tcp:
        {
          Tcp_header.src_port = 1024 + i;
          dst_port = 7;
          seq = 1000;
          ack = 1000;
          flags = Tcp_header.data_flags;
          window = 65535;
          options = { Tcp_header.no_options with timestamp = Some (1, 1) };
        }
      ~payload:(Bytes.create payload) ()
  in
  let n_bursts = max 1 (min 64 ((flows + burst - 1) / burst)) in
  let bursts =
    Array.init n_bursts (fun b ->
        Array.init burst (fun j -> segment (((b * burst) + j) mod flows)))
  in
  let next = ref 0 in
  let fp_ns =
    per_call (fun () ->
        Fast_path.process_burst fp bursts.(!next) ~count:burst cores.(0);
        Sim.run sim;
        next := (!next + 1) mod n_bursts)
    /. float_of_int burst
  in
  (* Stride coprime with any power of two: touches every flow in an order
     with no bucket locality. *)
  let table = Fast_path.flows fp and j = ref 0 in
  let lookup_ns =
    per_call (fun () ->
        ignore (Flow_table.find table tuples.(!j));
        j := (!j + 7919) mod flows)
  in
  let ring = Ring_buffer.create buf_size in
  let src = Bytes.create payload and dst = Bytes.create payload in
  let ring_ns =
    per_call (fun () ->
        ignore (Ring_buffer.push ring src ~off:0 ~len:payload);
        ignore (Ring_buffer.pop ring ~dst ~dst_off:0 ~len:payload))
  in
  {
    fp_ns_per_pkt = fp_ns;
    lookup_ns;
    ring_ns_per_kb = ring_ns *. 1024.0 /. float_of_int payload;
  }
