(* The three seeded workloads: topology, hosts and the closed-loop load
   generator with its correctness checks. Everything random the simulated
   program sees (connection start offsets, think-time jitter, payload
   bytes, the fault stage's RNG) is drawn here from the workload seed.
   README.md says why each workload exists and which layers it loads. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Nic = Tas_netsim.Nic
module Fault = Tas_netsim.Fault
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Fast_path = Tas_core.Fast_path
module Context = Tas_core.Context
module Transport = Tas_apps.Transport
module Scenario = Tas_experiments.Scenario
module Packet = Tas_proto.Packet
module Seq32 = Tas_proto.Seq32

(* --- Generator state ---------------------------------------------------- *)

type gen = {
  sim : Sim.t;
  traced : bool;
  seed : int;
  rng : Random.State.t;
  mutable opened : int;  (** connections the clients attempted *)
  mutable established : int;
  mutable closed_in_use : int;
      (** established connections (either end) that closed or errored *)
  mutable lost_ops : int;  (** operations in flight on such a connection *)
  mutable mismatches : int;  (** replies or transfers with wrong bytes *)
  mutable issued : int;  (** operations started, whole run *)
  mutable completed : int;  (** operations completed since [reset_window] *)
  mutable lat : int array;  (** their latencies, ns of simulated time *)
  mutable n_lat : int;
  mutable tas_bytes : int;  (** bytes sent or received on TAS sockets *)
}

let failed g =
  g.mismatches + g.lost_ops + g.closed_in_use + (g.opened - g.established)

let reset_window g =
  g.completed <- 0;
  g.lat <- Array.make 4096 0;
  g.n_lat <- 0;
  g.tas_bytes <- 0

let record g ns =
  if g.n_lat = Array.length g.lat then begin
    let a = Array.make (2 * g.n_lat) 0 in
    Array.blit g.lat 0 a 0 g.n_lat;
    g.lat <- a
  end;
  g.lat.(g.n_lat) <- ns;
  g.n_lat <- g.n_lat + 1;
  g.completed <- g.completed + 1

(* 63-bit integer mixer (SplitMix-style finalizer). *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
  x lxor (x lsr 32)

(* Deterministic pseudo-random bytes for key [k]. *)
let fill_random b k =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i < n do
    let w = mix (k + !i) in
    for j = 0 to min 7 (n - !i - 1) do
      Bytes.unsafe_set b (!i + j) (Char.unsafe_chr ((w lsr (8 * j)) land 0xff))
    done;
    i := !i + 8
  done

(* Handlers and timer callbacks run as generator time in a traced run. *)
let timed g f =
  if g.traced then fun x ->
    Probe.enter ();
    f x;
    Probe.leave Probe.gen
  else f

let wrap g (h : Transport.handlers) =
  if not g.traced then h
  else
    {
      Transport.on_connected = timed g h.on_connected;
      on_data =
        (fun c d ->
          Probe.enter ();
          h.on_data c d;
          Probe.leave Probe.gen);
      on_sendable = timed g h.on_sendable;
      on_peer_closed = timed g h.on_peer_closed;
      on_closed = timed g h.on_closed;
    }

let send g ~tas conn b =
  let n =
    if g.traced && tas then begin
      Probe.enter ();
      let n = Transport.send conn b in
      Probe.leave Probe.libtas;
      n
    end
    else Transport.send conn b
  in
  if tas then g.tas_bytes <- g.tas_bytes + n;
  n

(* Send [b] after any bytes still queued from earlier short sends. *)
let flush g ~tas conn out =
  if Fifo.length out > 0 then
    Fifo.drop out (send g ~tas conn (Bytes.sub out.Fifo.buf out.Fifo.off out.Fifo.len))

let push g ~tas conn out b =
  if Fifo.length out > 0 then begin
    Fifo.add out b 0 (Bytes.length b);
    flush g ~tas conn out
  end
  else begin
    let n = send g ~tas conn b in
    if n < Bytes.length b then Fifo.add out b n (Bytes.length b - n)
  end

type conn_state = { mutable up : bool; mutable dead : bool }

let closed g cs ~inflight =
  if not cs.dead then begin
    cs.dead <- true;
    if cs.up then begin
      g.closed_in_use <- g.closed_in_use + 1;
      g.lost_ops <- g.lost_ops + inflight
    end
  end

(* --- RPC echo --------------------------------------------------------------- *)

let echo_port = 7

(* Echo server: for every complete [msg]-byte request, charge [app_cycles]
   and send the request's bytes back. *)
let echo_server g transport ~msg ~app_cycles =
  Transport.listen transport ~port:echo_port (fun _ ->
      let rx = Fifo.create (4 * msg) and out = Fifo.create 0 in
      let cs = { up = true; dead = false } in
      wrap g
        {
          Transport.null_handlers with
          on_data =
            (fun conn data ->
              let len = Bytes.length data in
              g.tas_bytes <- g.tas_bytes + len;
              Fifo.add rx data 0 len;
              let k = Fifo.length rx / msg in
              if k > 0 then begin
                let chunk = Fifo.take rx (k * msg) in
                Transport.charge_app conn (k * app_cycles)
                  (timed g (fun () -> push g ~tas:true conn out chunk))
              end);
          on_sendable = (fun conn -> flush g ~tas:true conn out);
          on_peer_closed = (fun _ -> closed g cs ~inflight:0);
          on_closed = (fun _ -> closed g cs ~inflight:0);
        })

(* [n] closed-loop connections keeping [pipeline] [msg]-byte requests in
   flight each. Connection [i] opens at a seeded offset within
   [connect_spread_ns]; requests start at [start_ns] plus a seeded offset
   within [start_spread_ns]; each reply is checked against its request
   byte for byte and followed, [think_ns] plus seeded jitter later, by the
   next request. *)
let rpc_clients g transport ~tas ~n ~first ~dst_ip ~msg ~pipeline
    ~connect_spread_ns ~start_ns ~start_spread_ns ~think_ns ~jitter_ns =
  let delay () =
    think_ns + if jitter_ns > 0 then Random.State.int g.rng jitter_ns else 0
  in
  for i = 0 to n - 1 do
    let idx = first + i in
    let key = mix (g.seed lxor mix (idx + 1)) in
    let rx = Fifo.create (4 * msg) and out = Fifo.create 0 in
    let inflight = Queue.create () in
    let seq = ref 0 in
    let cs = { up = false; dead = false } in
    let rec fire conn () =
      let p = Bytes.create msg in
      fill_random p (key + (!seq * 64));
      incr seq;
      Queue.push (Sim.now g.sim, p) inflight;
      g.issued <- g.issued + 1;
      push g ~tas conn out p
    and on_data conn data =
      let len = Bytes.length data in
      if tas then g.tas_bytes <- g.tas_bytes + len;
      Fifo.add rx data 0 len;
      while Fifo.length rx >= msg do
        (match Queue.take_opt inflight with
        | None -> g.mismatches <- g.mismatches + 1
        | Some (t0, p) ->
          if not (Fifo.has_prefix rx p) then g.mismatches <- g.mismatches + 1;
          record g (Sim.now g.sim - t0);
          Sim.post g.sim (delay ()) (timed g (fire conn)));
        Fifo.drop rx msg
      done
    in
    let handlers =
      {
        Transport.on_connected =
          (fun conn ->
            cs.up <- true;
            g.established <- g.established + 1;
            let go =
              max (Sim.now g.sim)
                (start_ns + Random.State.int g.rng start_spread_ns)
            in
            Sim.post_at g.sim go
              (timed g (fun () ->
                   for _ = 1 to pipeline do
                     fire conn ()
                   done)));
        on_data;
        on_sendable = (fun conn -> flush g ~tas conn out);
        on_peer_closed =
          (fun _ -> closed g cs ~inflight:(Queue.length inflight));
        on_closed = (fun _ -> closed g cs ~inflight:(Queue.length inflight));
      }
    in
    Sim.post g.sim
      (Random.State.int g.rng connect_spread_ns)
      (timed g (fun () ->
           g.opened <- g.opened + 1;
           Transport.connect transport ~dst_ip ~dst_port:echo_port (fun _ ->
               wrap g handlers)))
  done

(* --- Bulk transfers ----------------------------------------------------- *)

let bulk_port = 9

(* A transfer is an 8-byte header (client index, transfer index) followed
   by [chunks_per_transfer] chunks of the seeded pattern, starting at a
   seeded rotation; the receiver answers a complete, checked transfer with
   one byte. *)
let chunk_len = 4096
let chunks_per_transfer = 64
let transfer_len = 8 + (chunk_len * chunks_per_transfer)

let pattern seed =
  Array.init chunks_per_transfer (fun j ->
      let b = Bytes.create chunk_len in
      fill_random b (mix (seed + (j * 7919)));
      b)

let rotation g ~idx ~k = mix (g.seed + (idx * 1_000_003) + k) land (chunks_per_transfer - 1)

let header ~idx ~k =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int ((idx lsl 40) lor k));
  b

let bulk_server g transport ~chunks =
  Transport.listen transport ~port:bulk_port (fun _ ->
      let cs = { up = true; dead = false } in
      let pos = ref 0 and hdr = Bytes.create 8 in
      let idx = ref (-1) and k = ref 0 and rot = ref 0 and ok = ref true in
      let out = Fifo.create 0 in
      let rec consume conn data off len =
        if len > 0 then
          if !pos < 8 then begin
            let n = min len (8 - !pos) in
            Bytes.blit data off hdr !pos n;
            pos := !pos + n;
            if !pos = 8 then begin
              let h = Int64.to_int (Bytes.get_int64_le hdr 0) in
              let i = h lsr 40 and tk = h land ((1 lsl 40) - 1) in
              if (!idx >= 0 && i <> !idx) || tk <> !k then ok := false;
              idx := i;
              rot := rotation g ~idx:i ~k:tk
            end;
            consume conn data (off + n) (len - n)
          end
          else begin
            let q = !pos - 8 in
            let c = q / chunk_len and r = q mod chunk_len in
            let n = min len (chunk_len - r) in
            let expect = chunks.((!rot + c) land (chunks_per_transfer - 1)) in
            if !ok && not (Fifo.equal_sub data off expect r n) then ok := false;
            pos := !pos + n;
            if !pos = transfer_len then begin
              if not !ok then g.mismatches <- g.mismatches + 1;
              push g ~tas:true conn out (Bytes.make 1 (Char.chr (!k land 0xff)));
              incr k;
              pos := 0;
              ok := true
            end;
            consume conn data (off + n) (len - n)
          end
      in
      wrap g
        {
          Transport.null_handlers with
          on_data =
            (fun conn data ->
              g.tas_bytes <- g.tas_bytes + Bytes.length data;
              consume conn data 0 (Bytes.length data));
          on_sendable = (fun conn -> flush g ~tas:true conn out);
          on_peer_closed = (fun _ -> closed g cs ~inflight:0);
          on_closed = (fun _ -> closed g cs ~inflight:0);
        })

(* [n] connections each running back-to-back transfers: the next starts a
   seeded think time after the previous one's one-byte reply. Latency is
   the transfer completion time, first byte sent to reply received. *)
let bulk_clients g transport ~chunks ~n ~dst_ip ~connect_spread_ns ~start_ns
    ~think_ns =
  for idx = 0 to n - 1 do
    let cs = { up = false; dead = false } in
    let k = ref 0 and started = ref 0 and next = ref 0 and rot = ref 0 in
    let rem = ref Bytes.empty and busy = ref false in
    let rec pump conn =
      if Bytes.length !rem > 0 then begin
        let b = !rem in
        let sent = send g ~tas:true conn b in
        if sent = Bytes.length b then begin
          rem := Bytes.empty;
          pump conn
        end
        else if sent > 0 then rem := Bytes.sub b sent (Bytes.length b - sent)
      end
      else if !next < chunks_per_transfer then begin
        let c = chunks.((!rot + !next) land (chunks_per_transfer - 1)) in
        incr next;
        let sent = send g ~tas:true conn c in
        if sent = chunk_len then pump conn
        else rem := if sent = 0 then c else Bytes.sub c sent (chunk_len - sent)
      end
    in
    let start conn () =
      busy := true;
      started := Sim.now g.sim;
      rot := rotation g ~idx ~k:!k;
      next := 0;
      rem := header ~idx ~k:!k;
      g.issued <- g.issued + 1;
      pump conn
    in
    let think () = Random.State.int g.rng think_ns in
    let handlers =
      {
        Transport.on_connected =
          (fun conn ->
            cs.up <- true;
            g.established <- g.established + 1;
            Sim.post_at g.sim
              (max (Sim.now g.sim) (start_ns + think ()))
              (timed g (start conn)));
        on_data =
          (fun conn data ->
            g.tas_bytes <- g.tas_bytes + Bytes.length data;
            if
              (not !busy)
              || Bytes.length data <> 1
              || Bytes.get data 0 <> Char.chr (!k land 0xff)
            then g.mismatches <- g.mismatches + 1;
            busy := false;
            record g (Sim.now g.sim - !started);
            incr k;
            Sim.post g.sim (think ()) (timed g (start conn)));
        on_sendable = (fun conn -> pump conn);
        on_peer_closed =
          (fun _ -> closed g cs ~inflight:(if !busy then 1 else 0));
        on_closed = (fun _ -> closed g cs ~inflight:(if !busy then 1 else 0));
      }
    in
    Sim.post g.sim
      (Random.State.int g.rng connect_spread_ns)
      (timed g (fun () ->
           g.opened <- g.opened + 1;
           Transport.connect transport ~dst_ip ~dst_port:bulk_port (fun _ ->
               wrap g handlers)))
  done

(* --- Worlds -------------------------------------------------------------- *)

type host = { tas : Tas.t; app_cores : Core.t array }

(* What the traced run samples at the hooks it interposes. *)
type samples = {
  mutable port_queue_max : int;
  mutable ctx_queue_max : int;
  mutable pending_max : int;
  mutable data_segs : int;  (** data segments offered to the lossy link *)
  mutable retx_segs : int;  (** of which retransmissions *)
}

type t = {
  sim : Sim.t;
  gen : gen;
  hosts : host list;  (** the TAS hosts *)
  ports : Port.t list;  (** every link port *)
  faults : Fault.t list;
  connect_ns : int;  (** connections open before this simulated time *)
  warmup_ns : int;  (** then load runs this long before measuring *)
  flows : int;  (** simulated connections *)
  seg_bytes : int;  (** data segment payload, for the layer replays *)
  buf_size : int;  (** per-flow payload ring size *)
  rx_queues : int;  (** server NIC receive queues *)
  samples : samples;
}

let new_gen sim ~traced ~seed ~tag =
  {
    sim;
    traced;
    seed = mix (seed + (tag * 0x9e3779b9));
    rng = Random.State.make [| seed; tag |];
    opened = 0;
    established = 0;
    closed_in_use = 0;
    lost_ops = 0;
    mismatches = 0;
    issued = 0;
    completed = 0;
    lat = Array.make 4096 0;
    n_lat = 0;
    tas_bytes = 0;
  }

let new_samples () =
  { port_queue_max = 0; ctx_queue_max = 0; pending_max = 0; data_segs = 0;
    retx_segs = 0 }

let host_of (s : Scenario.server) =
  match s.Scenario.tas with
  | Some tas -> { tas; app_cores = s.Scenario.app_cores }
  | None -> invalid_arg "Workload.host_of: not a TAS server"

let contexts h =
  let fp = Tas.fast_path h.tas in
  List.filter_map (Fast_path.find_context fp) (List.init 64 Fun.id)

(* Traced runs time every delivery from a fault-free port into a NIC
   ([layer] says whose), and sample queue depths there. *)
let interpose w (ep : Topology.endpoint) ~layer ~host =
  let s = w.samples and sim = w.sim in
  let ctxs = match host with Some h -> contexts h | None -> [] in
  let nic = ep.Topology.nic and up = ep.Topology.uplink
  and down = ep.Topology.downlink in
  Port.set_deliver down (fun pkt ->
      Probe.enter ();
      Nic.input nic pkt;
      Probe.leave layer;
      s.port_queue_max <-
        max s.port_queue_max (max (Port.queue_len up) (Port.queue_len down));
      s.pending_max <- max s.pending_max (Sim.pending sim);
      List.iter
        (fun c -> s.ctx_queue_max <- max s.ctx_queue_max (Context.pending c))
        ctxs)

(* Count retransmitted data segments offered to a lossy link: a segment
   starting below the highest sequence its flow already sent. The fault
   stage is re-wrapped around the same NIC input the topology gave it. *)
let observe_retransmits w (port : Port.t) fault (ep : Topology.endpoint) =
  let s = w.samples in
  let high = Hashtbl.create 16 in
  let deliver = Fault.wrap fault (fun p -> Nic.input ep.Topology.nic p) in
  Port.set_deliver port (fun pkt ->
      let len = Packet.payload_len pkt in
      if len > 0 then begin
        let tcp = pkt.Packet.tcp in
        let key = tcp.Tas_proto.Tcp_header.src_port in
        let seq = tcp.Tas_proto.Tcp_header.seq in
        let fin = Seq32.add seq len in
        s.data_segs <- s.data_segs + 1;
        match Hashtbl.find_opt high key with
        | Some h when Seq32.lt seq h ->
          s.retx_segs <- s.retx_segs + 1;
          if Seq32.gt fin h then Hashtbl.replace high key fin
        | _ -> Hashtbl.replace high key fin
      end;
      deliver pkt)

let us = Time_ns.us
let ms = Time_ns.ms

(* rpc_small: TAS<->TAS, 64 connections x 4 pipelined 64 B echo RPCs, 250
   application cycles per request on the server. *)
let rpc_small ~seed ~traced =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~spec:(Topology.link_10g ()) () in
  let build ep =
    Scenario.build_server sim ~nic:ep.Topology.nic ~kind:Scenario.Tas_ll
      ~total_cores:4 ~app_cycles:250 ()
  in
  let client = build net.Topology.a and server = build net.Topology.b in
  let ch = host_of client and sh = host_of server in
  let g = new_gen sim ~traced ~seed ~tag:1 in
  let connect_ns = ms 2 in
  let w =
    {
      sim;
      gen = g;
      hosts = [ ch; sh ];
      ports = [ net.Topology.a.Topology.uplink; net.Topology.b.Topology.uplink ];
      faults = [];
      connect_ns;
      warmup_ns = ms 15;
      flows = 64;
      seg_bytes = 64;
      buf_size = 16384;
      rx_queues = Nic.num_queues net.Topology.b.Topology.nic;
      samples = new_samples ();
    }
  in
  if traced then begin
    interpose w net.Topology.a ~layer:Probe.netsim ~host:(Some ch);
    interpose w net.Topology.b ~layer:Probe.netsim ~host:(Some sh)
  end;
  echo_server g server.Scenario.transport ~msg:64 ~app_cycles:250;
  rpc_clients g client.Scenario.transport ~tas:true ~n:64 ~first:0
    ~dst_ip:server.Scenario.ip ~msg:64 ~pipeline:4 ~connect_spread_ns:(us 50)
    ~start_ns:connect_ns ~start_spread_ns:(us 10) ~think_ns:0 ~jitter_ns:1000;
  w

(* bulk_lossy: TAS<->TAS over a 50 us link, 8 connections of closed-loop
   256 KiB transfers, RACK-TLP recovery, seeded Gilbert-Elliott loss (0.5%,
   mean burst 3 packets) on the data direction. *)
let bulk_lossy ~seed ~traced =
  let sim = Sim.create () in
  let spec = { (Topology.link_10g ()) with Topology.delay = us 50 } in
  let net =
    Topology.point_to_point sim ~spec
      ~fault_ab:(Fault.bursty_of_rate ~rate:0.005 ~mean_burst_pkts:3.0)
      ~rng:(Tas_engine.Rng.create (mix (seed + 0x51ed)))
      ()
  in
  let buf_size = 131072 in
  let build ep =
    Scenario.build_server sim ~nic:ep.Topology.nic ~kind:Scenario.Tas_ll
      ~total_cores:4 ~buf_size
      ~tas_patch:(fun c ->
        { c with Config.recovery_policy = Tas_recovery.Policy.Rack_tlp })
      ()
  in
  let client = build net.Topology.a and server = build net.Topology.b in
  let ch = host_of client and sh = host_of server in
  let g = new_gen sim ~traced ~seed ~tag:2 in
  (* Covers two handshake retransmissions (20 ms apart): a SYN can fall to
     the fault stage. *)
  let connect_ns = ms 45 in
  let fault = Option.get net.Topology.fault_ab in
  let w =
    {
      sim;
      gen = g;
      hosts = [ ch; sh ];
      ports = [ net.Topology.a.Topology.uplink; net.Topology.b.Topology.uplink ];
      faults = [ fault ];
      connect_ns;
      warmup_ns = ms 100;
      flows = 8;
      seg_bytes = (Tas.config sh.tas).Config.mss;
      buf_size;
      rx_queues = Nic.num_queues net.Topology.b.Topology.nic;
      samples = new_samples ();
    }
  in
  if traced then begin
    (* The data direction a->b carries the fault stage; only the reverse
       direction is timed. *)
    interpose w net.Topology.a ~layer:Probe.netsim ~host:(Some ch);
    observe_retransmits w net.Topology.a.Topology.uplink fault net.Topology.b
  end;
  let chunks = pattern g.seed in
  bulk_server g server.Scenario.transport ~chunks;
  bulk_clients g client.Scenario.transport ~chunks ~n:8
    ~dst_ip:server.Scenario.ip ~connect_spread_ns:(us 100) ~start_ns:connect_ns
    ~think_ns:(us 10);
  w

(* conn_scale: 4 baseline-TCP clients x 2048 persistent connections to an
   8-core TAS sockets server through a switch; 64 B RPCs, 50 us mean think
   time. Connections open during set-up. *)
let conn_scale ~seed ~traced =
  let sim = Sim.create () in
  let n_clients = 4 and per_client = 2048 in
  let conns = n_clients * per_client in
  let net = Topology.star sim ~n_clients () in
  let buf_size = 4096 in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_so ~total_cores:8 ~app_cycles:250 ~buf_size
      ~tas_patch:(fun c ->
        {
          c with
          Config.flow_arena_capacity = conns + 512;
          context_queue_capacity = (4 * conns) + 4096;
          control_interval_min_ns = 1_000_000;
        })
      ()
  in
  let sh = host_of server in
  let g = new_gen sim ~traced ~seed ~tag:3 in
  let connect_ns = ms 30 in
  let eps = net.Topology.server :: Array.to_list net.Topology.clients in
  let w =
    {
      sim;
      gen = g;
      hosts = [ sh ];
      ports =
        List.concat_map
          (fun ep -> [ ep.Topology.uplink; ep.Topology.downlink ])
          eps;
      faults = [];
      connect_ns;
      warmup_ns = ms 2;
      flows = conns;
      seg_bytes = 64;
      buf_size;
      rx_queues = Nic.num_queues net.Topology.server.Topology.nic;
      samples = new_samples ();
    }
  in
  if traced then begin
    interpose w net.Topology.server ~layer:Probe.netsim ~host:(Some sh);
    Array.iter
      (fun ep -> interpose w ep ~layer:Probe.baseline ~host:None)
      net.Topology.clients
  end;
  echo_server g server.Scenario.transport ~msg:64 ~app_cycles:250;
  Array.iteri
    (fun i ep ->
      let transport = Scenario.client_transport sim ep ~buf_size () in
      rpc_clients g transport ~tas:false ~n:per_client ~first:(i * per_client)
        ~dst_ip:server.Scenario.ip ~msg:64 ~pipeline:1
        ~connect_spread_ns:(ms 20) ~start_ns:connect_ns
        ~start_spread_ns:(ms 1) ~think_ns:(us 45)
        ~jitter_ns:(us 10))
    net.Topology.clients;
  w

let all = [ ("rpc_small", rpc_small); ("bulk_lossy", bulk_lossy);
            ("conn_scale", conn_scale) ]
