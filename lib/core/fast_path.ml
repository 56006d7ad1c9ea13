module Sim = Tas_engine.Sim
module Nic = Tas_netsim.Nic
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Ipv4_header = Tas_proto.Ipv4_header
module Ring = Tas_buffers.Ring_buffer
module Ooo = Tas_buffers.Ooo_interval
module Buf_pool = Tas_buffers.Buf_pool
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module Span = Tas_telemetry.Span
module Rec = Tas_recovery
module Int_tbl = Tas_engine.Int_tbl

(* Max packets per vector pass over a core's receive backlog. *)
let fp_burst_size = 32

(* Cost of waking a blocked fast-path thread. *)
let wakeup_ns = 5_000

type stats = {
  mutable rx_data_packets : int;
  mutable rx_ack_packets : int;
  mutable tx_data_packets : int;
  mutable acks_sent : int;
  mutable ooo_stored : int;
  mutable payload_drops : int;
  mutable fast_retransmits : int;
  mutable exceptions_forwarded : int;
  mutable malformed_drops : int;
  mutable rx_bursts : int;
  mutable rx_burst_packets : int;
}

(* Loss-recovery subsystem counters, live only under a SACK-class policy
   ([Config.recovery_policy] <> [Reno]); all zero — and their metrics not
   even registered — under the default Reno policy, keeping the seed's
   telemetry byte-identical. *)
type rec_stats = {
  mutable rec_episodes : int;
  mutable rec_sacked_segments : int;
  mutable rec_lost_marked : int;
  mutable rec_selective_retransmits : int;
  mutable rec_tlp_probes : int;
  mutable rec_reo_timeouts : int;
}

(* Per-core receive backlog: packets accepted from the NIC queue but not
   yet run through the vector pass. A plain circular buffer so enqueueing
   a packet allocates nothing. *)
type backlog = {
  mutable bl_buf : Packet.t array;
  mutable bl_head : int;
  mutable bl_len : int;
}

(* One-entry flow memo for the duration of a single vector pass: bursts are
   dominated by runs of segments of the same flow, so the common case skips
   the hash lookup (and its modeled lock acquisition) entirely. Reset at
   every pass; flow installs/removes are deferred events and cannot land
   mid-pass. *)
type memo = {
  mutable m_flow : Flow_state.t option;
  mutable m_src_ip : int;
  mutable m_src_port : int;
  mutable m_dst_ip : int;
  mutable m_dst_port : int;
}

type t = {
  sim : Sim.t;
  nic : Nic.t;
  cores : Core.t array;
  config : Config.t;
  flows : Flow_table.t;
  contexts : Context.t Int_tbl.t;
  mutable next_context_id : int;
  mutable active : int;
  (* Whether [set_active_cores] has pushed [active] into the NIC's RSS
     table at least once. The fast path starts with [active] = core count
     while the RSS table starts spread over all queues; the first
     actuation must always apply even when the counts coincide, after
     which unchanged counts are no-ops (no spurious nic_rss_rewrites). *)
  mutable rss_synced : bool;
  mutable exception_handler : Packet.t -> unit;
  stats : stats;
  rec_stats : rec_stats;
  trace : Trace.t;
  span : Span.t;
  mutable busy_snapshot : int array;
  mutable last_rx_time : int array;  (* per-core, for idle blocking *)
  backlogs : backlog array;
  drain_armed : bool array;
  mutable drain_thunks : (unit -> unit) array;
  (* Per-core transmit staging: a data segment is pushed here and handed to
     the NIC by the core's persistent tx thunk. Per-core FIFO order means
     each thunk firing pops exactly the packet whose [Core.run] scheduled
     it — identical behaviour to capturing the packet in a closure, minus
     the per-packet closure. *)
  tx_queues : backlog array;
  mutable tx_thunks : (unit -> unit) array;
  memo : memo;
  scratch : Packet.t array;  (* vector-pass staging, [fp_burst_size] slots *)
  dummy_pkt : Packet.t;
}

(* Circular-FIFO helpers shared by the receive backlogs and the transmit
   staging queues. *)
let backlog_push b pkt =
  let cap = Array.length b.bl_buf in
  if b.bl_len = cap then begin
    let bigger = Array.make (2 * cap) b.bl_buf.(0) in
    for i = 0 to b.bl_len - 1 do
      bigger.(i) <- b.bl_buf.((b.bl_head + i) mod cap)
    done;
    b.bl_buf <- bigger;
    b.bl_head <- 0
  end;
  b.bl_buf.((b.bl_head + b.bl_len) mod Array.length b.bl_buf) <- pkt;
  b.bl_len <- b.bl_len + 1

let backlog_shift b dummy =
  if b.bl_len = 0 then invalid_arg "Fast_path: empty backlog";
  let pkt = b.bl_buf.(b.bl_head) in
  b.bl_buf.(b.bl_head) <- dummy;
  b.bl_head <- (b.bl_head + 1) mod Array.length b.bl_buf;
  b.bl_len <- b.bl_len - 1;
  pkt

let make_dummy_packet () =
  Packet.make ~src_mac:0 ~dst_mac:0 ~src_ip:0 ~dst_ip:0
    ~tcp:
      {
        Tcp_header.src_port = 0;
        dst_port = 0;
        seq = 0;
        ack = 0;
        flags = Tcp_header.no_flags;
        window = 0;
        options = Tcp_header.no_options;
      }
    ~payload:Bytes.empty ()

let create ?trace ?span sim ~nic ~cores ~config =
  if Array.length cores = 0 then invalid_arg "Fast_path.create: no cores";
  let flows =
    (* Sharded by RSS queue (one shard per queue, following the NIC's
       redirection table) unless explicitly configured as one table. *)
    if config.Config.flow_shards_enabled then
      Flow_table.create_sharded ~rss:(Nic.rss nic) ()
    else Flow_table.create ()
  in
  let dummy_pkt = make_dummy_packet () in
  let n = Array.length cores in
  let t =
  {
    sim;
    nic;
    cores;
    config;
    flows;
    contexts = Int_tbl.create 16;
    next_context_id = 0;
    active = n;
    rss_synced = false;
    exception_handler = ignore;
    stats =
      {
        rx_data_packets = 0;
        rx_ack_packets = 0;
        tx_data_packets = 0;
        acks_sent = 0;
        ooo_stored = 0;
        payload_drops = 0;
        fast_retransmits = 0;
        exceptions_forwarded = 0;
        malformed_drops = 0;
        rx_bursts = 0;
        rx_burst_packets = 0;
      };
    rec_stats =
      {
        rec_episodes = 0;
        rec_sacked_segments = 0;
        rec_lost_marked = 0;
        rec_selective_retransmits = 0;
        rec_tlp_probes = 0;
        rec_reo_timeouts = 0;
      };
    trace = (match trace with Some tr -> tr | None -> Trace.disabled ());
    span = (match span with Some sp -> sp | None -> Span.disabled ());
    busy_snapshot = Array.make n 0;
    last_rx_time = Array.make n 0;
    backlogs =
      Array.init n (fun _ ->
          { bl_buf = Array.make 64 dummy_pkt; bl_head = 0; bl_len = 0 });
    drain_armed = Array.make n false;
    drain_thunks = [||];
    tx_queues =
      Array.init n (fun _ ->
          { bl_buf = Array.make 64 dummy_pkt; bl_head = 0; bl_len = 0 });
    tx_thunks = [||];
    memo =
      {
        m_flow = None;
        m_src_ip = -1;
        m_src_port = -1;
        m_dst_ip = -1;
        m_dst_port = -1;
      };
    scratch = Array.make fp_burst_size dummy_pkt;
    dummy_pkt;
  }
  in
  Flow_table.set_on_migrate t.flows (fun ~group ~from_q:_ ~to_q ~moved ->
      (* One event per flow group whose state actually moved shards; [core]
         is the destination queue, [flow] the group id. *)
      if moved > 0 && Trace.enabled t.trace then
        Trace.record t.trace ~ts:(Sim.now t.sim) ~kind:Trace.Shard_migrate
          ~core:to_q ~flow:group);
  t.tx_thunks <-
    Array.init n (fun idx ->
        fun () -> Nic.transmit t.nic (backlog_shift t.tx_queues.(idx) t.dummy_pkt));
  t

let flows t = t.flows
let stats t = t.stats
let rec_stats t = t.rec_stats
let config t = t.config
let nic t = t.nic
let trace t = t.trace
let span t = t.span
let set_exception_handler t f = t.exception_handler <- f
let active_cores t = t.active

(* One boolean test when tracing is off; event construction only when on. *)
let trace_ev t kind ~core ~flow =
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:(Sim.now t.sim) ~kind ~core ~flow

let register t m =
  let s = t.stats in
  let c name help f = Metrics.counter_fn m ~help name f in
  c "fp_rx_data_packets" "data segments processed by the fast path" (fun () ->
      s.rx_data_packets);
  c "fp_rx_ack_packets" "pure ACKs processed by the fast path" (fun () ->
      s.rx_ack_packets);
  c "fp_tx_data_packets" "data segments transmitted" (fun () ->
      s.tx_data_packets);
  c "fp_acks_sent" "ACKs generated" (fun () -> s.acks_sent);
  c "fp_ooo_stored" "out-of-order segments buffered" (fun () -> s.ooo_stored);
  c "fp_payload_drops" "receive payload drops" (fun () -> s.payload_drops);
  c "fp_fast_retransmits" "triple-dupACK fast retransmits" (fun () ->
      s.fast_retransmits);
  c "fp_exceptions_forwarded" "packets punted to the slow path" (fun () ->
      s.exceptions_forwarded);
  c "fp_malformed_drops" "length-inconsistent packets dropped on receive"
    (fun () -> s.malformed_drops);
  c "fp_rx_bursts" "vector passes over the receive backlog" (fun () ->
      s.rx_bursts);
  c "fp_rx_burst_packets" "packets processed through vector passes" (fun () ->
      s.rx_burst_packets);
  Metrics.gauge_fn m ~help:"fast-path cores currently active" "fp_active_cores"
    (fun () -> float_of_int t.active);
  Metrics.gauge_fn m ~help:"flows installed in the fast-path flow table"
    "fp_flows" (fun () -> float_of_int (Flow_table.count t.flows));
  c "fp_lock_cycles"
    "flow-table spinlock cycles charged across all shards (cost model only)"
    (fun () -> Flow_table.lock_cycles t.flows);
  c "fp_flow_migrations" "flows moved between shards by RSS rewrites"
    (fun () -> Flow_table.migrated_flows t.flows);
  (* Recovery-subsystem counters exist only when a SACK-class policy is
     configured; under the default Reno policy the registry output stays
     byte-identical to the pre-recovery seed. *)
  if t.config.Config.recovery_policy <> Rec.Policy.Reno then begin
    let r = t.rec_stats in
    c "rec_episodes" "SACK/RACK recovery episodes entered" (fun () ->
        r.rec_episodes);
    c "rec_sacked_segments" "segments newly marked sacked by ACK blocks"
      (fun () -> r.rec_sacked_segments);
    c "rec_lost_marked" "segments marked lost (dupthresh + RACK rules)"
      (fun () -> r.rec_lost_marked);
    c "rec_selective_retransmits" "lost segments selectively retransmitted"
      (fun () -> r.rec_selective_retransmits);
    c "rec_tlp_probes" "tail-loss probes transmitted" (fun () ->
        r.rec_tlp_probes);
    c "rec_reo_timeouts" "RACK reordering timers that marked losses"
      (fun () -> r.rec_reo_timeouts)
  end;
  Flow_table.register t.flows m ()

let set_active_cores t n =
  (* Bounded by both the configured cores and the NIC's RSS queues. *)
  let cap = Int.min (Array.length t.cores) (Nic.num_queues t.nic) in
  let n = Int.max 1 (Int.min n cap) in
  (* Idempotent after the first sync: repeated controller ticks with an
     unchanged target must not rewrite the redirection table (every
     [Rss_table.set_active] bumps nic_rss_rewrites). *)
  if n <> t.active || not t.rss_synced then begin
    t.active <- n;
    t.rss_synced <- true;
    Nic.set_active_queues t.nic n
  end

let fresh_context_id t =
  let id = t.next_context_id in
  t.next_context_id <- id + 1;
  id

let register_context t ctx =
  let id = Context.id ctx in
  if Int_tbl.mem t.contexts id then
    invalid_arg "Fast_path.register_context: duplicate context id";
  Int_tbl.replace t.contexts id ctx

let unregister_context t id = Int_tbl.remove t.contexts id

let find_context t id = Int_tbl.find_opt t.contexts id

let context t id =
  match Int_tbl.find_opt t.contexts id with
  | Some ctx -> ctx
  | None -> invalid_arg "Fast_path.context: unknown context id"

let core_of_flow t flow =
  let tuple = Flow_state.tuple flow ~local_ip:(Nic.ip t.nic) in
  let queue = Nic.queue_for_hash t.nic (Addr.Four_tuple.sym_hash tuple) in
  t.cores.(queue mod Array.length t.cores)

let install_flow t ~tuple flow = Flow_table.add t.flows tuple flow
let remove_flow t ~tuple = Flow_table.remove t.flows tuple

let now_us t = Sim.now t.sim / 1000

(* --- Packet construction ---------------------------------------------- *)

let build_packet ?(sack = []) t flow ~(flags : Tcp_header.flags) ~seq ~payload =
  let tcp =
    {
      Tcp_header.src_port = Flow_state.local_port flow;
      dst_port = Flow_state.peer_port flow;
      seq;
      ack = (if flags.Tcp_header.ack then Flow_state.ack flow else 0);
      flags;
      window =
        Int.min 65535
          (Ring.free (Flow_state.rx_buf flow) asr t.config.Config.wscale);
      options =
        {
          Tcp_header.mss = None;
          wscale = None;
          timestamp =
            Some (now_us t land 0xFFFF_FFFF, Flow_state.ts_recent flow);
          sack;
        };
    }
  in
  let ecn =
    if Bytes.length payload > 0 then Ipv4_header.Ect0 else Ipv4_header.Not_ect
  in
  Packet.make ~src_mac:(Nic.mac t.nic) ~dst_mac:(Flow_state.peer_mac flow)
    ~src_ip:(Nic.ip t.nic) ~dst_ip:(Flow_state.peer_ip flow) ~ecn ~tcp ~payload
    ()

let send_raw t pkt = Nic.transmit t.nic pkt

(* [maybe_send]'s core is always an element of [t.cores] ([core_of_flow] or
   the drain pass's core); the scan is over at most a handful of cores. *)
let core_index t core =
  let n = Array.length t.cores in
  let rec go i = if i >= n - 1 || t.cores.(i) == core then i else go (i + 1) in
  go 0

(* Both ACK-flag shapes, precomputed: the per-ACK [{ack_flags with ece}]
   record allocation used to show up in the bulk words/packet profile. *)
let ack_flags_ece = { Tcp_header.ack_flags with Tcp_header.ece = true }

let send_ack t flow ~ece =
  let flags = if ece then ack_flags_ece else Tcp_header.ack_flags in
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:(Sim.now t.sim) ~kind:Trace.Ack_tx
      ~core:(Core.id (core_of_flow t flow))
      ~flow:(Flow_state.opaque flow);
  (* Under a SACK-class policy advertise the out-of-order intervals (at
     most 3 blocks beside the 10-byte timestamp option); Reno flows emit
     no SACK bytes and the ACK stays byte-identical to the seed. *)
  let sack =
    match Flow_state.recovery_kind flow with
    | Rec.Policy.Reno -> []
    | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
      Ooo.sack_blocks (Flow_state.ooo flow) ~limit:3
  in
  Nic.transmit t.nic
    (build_packet ~sack t flow ~flags ~seq:(Flow_state.seq flow)
       ~payload:Bytes.empty)

let fin_ack_flags = { Tcp_header.ack_flags with Tcp_header.fin = true }

let emit_fin t flow =
  Flow_state.set_fin_sent flow true;
  Nic.transmit t.nic
    (build_packet t flow ~flags:fin_ack_flags ~seq:(Flow_state.seq flow)
       ~payload:Bytes.empty)

(* --- Transmission ------------------------------------------------------ *)

let tx_cycles t = t.config.Config.fp_driver_cycles + t.config.Config.fp_tx_cycles

(* Scoreboard bookkeeping for fresh transmissions: only SACK-class flows
   track per-segment state; Reno pays one variant test. *)
let rec_on_transmit t flow ~seq ~len =
  let st = Flow_state.recovery flow in
  match st.Rec.State.kind with
  | Rec.Policy.Reno -> ()
  | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
    Rec.Scoreboard.on_transmit st.Rec.State.sb ~seq ~len ~now_ns:(Sim.now t.sim)

(* Drain the flow's bucket: segment and transmit as much buffered payload as
   congestion/flow control allows; in rate mode arm a pacing timer when the
   bucket runs dry. Runs on [core]. *)
let rec maybe_send t flow core =
  let avail = Flow_state.tx_available flow in
  if
    avail > 0
    && (not (Flow_state.fin_sent flow))
    && not (Flow_state.released flow)
  then begin
    let peer_budget = Flow_state.window flow - Flow_state.tx_sent flow in
    if peer_budget > 0 then begin
      let want = Int.min t.config.Config.mss (Int.min avail peer_budget) in
      (* Pace whole segments: a rate bucket with only a few tokens must not
         emit tiny packets — wait until a full [want] accumulates. *)
      let granted =
        if Rate_bucket.ns_until_bytes_int (Flow_state.bucket flow) want >= 0
        then 0
        else
          Rate_bucket.tx_budget (Flow_state.bucket flow)
            ~in_flight:(Flow_state.tx_sent flow) ~want
      in
      if granted > 0 then begin
        (* Pool-recycled payload staging: [Ring.read_at ~len:granted] below
           overwrites the full (exact-length) buffer, so stale contents of a
           recycled buffer are never observable. *)
        let payload = Buf_pool.take (Buf_pool.local ()) granted in
        let tx_buf = Flow_state.tx_buf flow in
        Ring.read_at tx_buf
          ~pos:(Ring.tail tx_buf + Flow_state.tx_sent flow)
          ~dst:payload ~dst_off:0 ~len:granted;
        let seq = Flow_state.seq flow in
        Flow_state.set_seq flow (Seq32.add seq granted);
        Flow_state.set_tx_sent flow (Flow_state.tx_sent flow + granted);
        rec_on_transmit t flow ~seq ~len:granted;
        t.stats.tx_data_packets <- t.stats.tx_data_packets + 1;
        trace_ev t Trace.Tx_data ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        let pkt =
          build_packet t flow ~flags:Tcp_header.data_flags ~seq ~payload
        in
        (* Small payloads bypassed the pool; marking them would only make
           the final release allocate a pointless [Some]. *)
        if granted >= Buf_pool.min_len then Packet.mark_pooled pkt;
        if Flow_state.tx_span flow >= 0 then begin
          let id = Flow_state.tx_span flow in
          Flow_state.set_tx_span flow (-1);
          pkt.Packet.span <- id;
          Span.record t.span ~ts:(Sim.now t.sim) ~id ~hop:Span.Fp_tx
            ~core:(Core.id core) ~flow:(Flow_state.opaque flow)
        end;
        let idx = core_index t core in
        backlog_push t.tx_queues.(idx) pkt;
        Core.run core ~cat:Core.Tx ~cycles:(tx_cycles t) t.tx_thunks.(idx);
        maybe_send t flow core
      end
      else arm_pacing_timer t flow core ~want
    end
  end

and arm_pacing_timer t flow core ~want =
  if not (Flow_state.tx_timer_armed flow) then begin
    let delay = Rate_bucket.ns_until_bytes_int (Flow_state.bucket flow) want in
    if delay < 0 then () (* window mode / available now: an ACK reopens *)
    else if delay = max_int then () (* rate is zero; slow path will update *)
    else begin
      Flow_state.set_tx_timer_armed flow true;
      Sim.post t.sim (Int.max delay 1) (fun () ->
          Flow_state.set_tx_timer_armed flow false;
          maybe_send t flow core)
    end
  end

(* --- SACK / RACK-TLP recovery engine ----------------------------------- *)

(* Re-read a still-unacked segment out of the transmit buffer and emit it
   without rewinding [seq]/[tx_sent] — the selective retransmission the
   Reno path cannot do. Bypasses the rate bucket: recovery traffic replaces
   segments whose tokens were already spent, so re-pacing it would only
   delay repair (the slow path still sees the episode via cnt_frexmits and
   cuts the rate). *)
let send_segment t flow core ~seq ~len =
  let tx_buf = Flow_state.tx_buf flow in
  let off = Seq32.diff seq (Flow_state.snd_una flow) in
  if len > 0 && off >= 0 && off + len <= Ring.used tx_buf then begin
    let payload = Buf_pool.take (Buf_pool.local ()) len in
    Ring.read_at tx_buf ~pos:(Ring.tail tx_buf + off) ~dst:payload ~dst_off:0
      ~len;
    t.stats.tx_data_packets <- t.stats.tx_data_packets + 1;
    trace_ev t Trace.Tx_data ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    let pkt = build_packet t flow ~flags:Tcp_header.data_flags ~seq ~payload in
    if len >= Buf_pool.min_len then Packet.mark_pooled pkt;
    let idx = core_index t core in
    backlog_push t.tx_queues.(idx) pkt;
    Core.run core ~cat:Core.Tx ~cycles:(tx_cycles t) t.tx_thunks.(idx);
    true
  end
  else false

(* Retransmit every segment the scoreboard currently marks lost, lowest
   first. [on_retransmit] clears the marking (and refreshes the RACK
   timestamp) before the send, so the scan always terminates. *)
let retransmit_lost t flow core =
  let st = Flow_state.recovery flow in
  let sb = st.Rec.State.sb in
  let continue = ref true in
  while !continue do
    match Rec.Scoreboard.next_lost sb with
    | None -> continue := false
    | Some (seq, len) ->
      ignore (Rec.Scoreboard.on_retransmit sb ~seq ~now_ns:(Sim.now t.sim));
      if send_segment t flow core ~seq ~len then begin
        t.rec_stats.rec_selective_retransmits <-
          t.rec_stats.rec_selective_retransmits + 1;
        trace_ev t Trace.Rec_retransmit ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow)
      end
      else continue := false
  done

let reo_wnd_of flow = Rec.Rack_tlp.reo_wnd_ns ~srtt_ns:(Flow_state.rtt_est flow)

(* Tail-loss probe: one PTO hangs over the connection while data is in
   flight; on expiry the highest unsacked segment is re-sent to
   manufacture the ACK/SACK feedback RACK needs. Timers are fire-and-
   forget [Sim.post] events validated against the flow's recovery
   generation — cumulative progress, an RTO rewind or teardown bumps [gen]
   and the stale timer dissolves without touching the flow. A released
   flow never arms one. *)
let rec arm_tlp t flow core =
  let st = Flow_state.recovery flow in
  if
    st.Rec.State.kind = Rec.Policy.Rack_tlp
    && (not st.Rec.State.tlp_armed)
    && Flow_state.tx_sent flow > 0
    && not (Flow_state.released flow)
  then begin
    st.Rec.State.tlp_armed <- true;
    let gen = st.Rec.State.gen in
    let pto =
      (* Before the first RTT sample the 2*srtt formula would collapse to
         its 1 ms floor and probe ahead of the genuine first ACK; fall
         back to the handshake RTO until the estimator warms up. *)
      let srtt = Flow_state.rtt_est flow in
      if srtt = 0 then Config.handshake_rto_ns
      else Rec.Rack_tlp.pto_ns ~srtt_ns:srtt
    in
    Sim.post t.sim pto (fun () ->
        if st.Rec.State.gen = gen then begin
          st.Rec.State.tlp_armed <- false;
          if Flow_state.tx_sent flow > 0 then fire_tlp t flow core
        end)
  end

and fire_tlp t flow core =
  let st = Flow_state.recovery flow in
  (match Rec.Scoreboard.last_unsacked st.Rec.State.sb with
  | Some (seq, len) ->
    t.rec_stats.rec_tlp_probes <- t.rec_stats.rec_tlp_probes + 1;
    trace_ev t Trace.Rec_tlp_probe ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    if send_segment t flow core ~seq ~len then
      ignore
        (Rec.Scoreboard.on_retransmit st.Rec.State.sb ~seq
           ~now_ns:(Sim.now t.sim))
  | None -> ());
  arm_tlp t flow core

(* RACK reordering timer: loss evidence exists (something above the hole
   was sacked) but the reordering window has not elapsed yet; wake up when
   the oldest candidate crosses it and mark whatever still qualifies. *)
let arm_reo t flow core =
  let st = Flow_state.recovery flow in
  if st.Rec.State.kind = Rec.Policy.Rack_tlp && not st.Rec.State.reo_armed
  then
    match Rec.Scoreboard.oldest_unsacked_tx st.Rec.State.sb with
    | None -> ()
    | Some tx ->
      st.Rec.State.reo_armed <- true;
      let gen = st.Rec.State.gen in
      let srtt = Int.max 1 (Flow_state.rtt_est flow) in
      let due = tx + reo_wnd_of flow + srtt in
      let delay = Int.max 1 (due - Sim.now t.sim) in
      Sim.post t.sim delay (fun () ->
          if st.Rec.State.gen = gen then begin
            st.Rec.State.reo_armed <- false;
            let srtt = Flow_state.rtt_est flow in
            let n =
              Rec.Rack_tlp.on_reo_timer st ~now_ns:(Sim.now t.sim)
                ~reo_wnd:(reo_wnd_of flow) ~srtt_ns:srtt
            in
            if n > 0 then begin
              t.rec_stats.rec_reo_timeouts <- t.rec_stats.rec_reo_timeouts + 1;
              t.rec_stats.rec_lost_marked <- t.rec_stats.rec_lost_marked + n;
              trace_ev t Trace.Rec_reo_timeout ~core:(Core.id core)
                ~flow:(Flow_state.opaque flow);
              retransmit_lost t flow core
            end
          end)

(* Digest one ACK through the configured recovery engine and act on the
   verdict: mirror the episode flag into the Table-3 record, signal the
   slow path's rate cut once per episode (cnt_frexmits, like Reno), and
   selectively retransmit whatever was marked lost. *)
let recovery_on_ack t flow core ~una ~blocks ~dup_acks =
  let st = Flow_state.recovery flow in
  let snd_nxt = Flow_state.seq flow in
  let newly_sacked, newly_lost, entered, exited =
    match st.Rec.State.kind with
    | Rec.Policy.Reno -> (0, 0, false, false)
    | Rec.Policy.Sack ->
      let o = Rec.Sack.on_ack st ~una ~snd_nxt ~blocks ~dup_acks in
      (o.Rec.Sack.newly_sacked, o.Rec.Sack.newly_lost, o.Rec.Sack.entered,
       o.Rec.Sack.exited)
    | Rec.Policy.Rack_tlp ->
      let o =
        Rec.Rack_tlp.on_ack st ~una ~snd_nxt ~blocks ~dup_acks
          ~reo_wnd:(reo_wnd_of flow)
      in
      (o.Rec.Rack_tlp.newly_sacked, o.Rec.Rack_tlp.newly_lost,
       o.Rec.Rack_tlp.entered, o.Rec.Rack_tlp.exited)
  in
  Flow_state.set_in_recovery flow st.Rec.State.in_rec;
  if exited then
    trace_ev t Trace.Rec_exit ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
  if entered then begin
    (* One rate-cut signal per episode: the slow path reads cnt_frexmits
       exactly as it does for Reno fast retransmits. *)
    Flow_state.set_cnt_frexmits flow (Flow_state.cnt_frexmits flow + 1);
    t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
    t.rec_stats.rec_episodes <- t.rec_stats.rec_episodes + 1;
    trace_ev t Trace.Rec_enter ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow)
  end;
  if newly_sacked > 0 then
    t.rec_stats.rec_sacked_segments <-
      t.rec_stats.rec_sacked_segments + newly_sacked;
  if newly_lost > 0 then begin
    t.rec_stats.rec_lost_marked <- t.rec_stats.rec_lost_marked + newly_lost;
    trace_ev t Trace.Rec_mark_lost ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow)
  end;
  retransmit_lost t flow core

let notify_tx t flow =
  let core = core_of_flow t flow in
  (* The TX command costs a few cycles of fast-path attention. *)
  Core.run core ~cat:Core.Tx ~cycles:50 (fun () ->
      maybe_send t flow core;
      arm_tlp t flow core)

let trigger_retransmit t flow =
  let core = core_of_flow t flow in
  Core.run core ~cat:Core.Tx ~cycles:100 (fun () ->
      (* RTO-class rewind: forget the scoreboard (segments re-register as
         they are re-sent) and invalidate pending RACK/TLP timers. *)
      Rec.State.reset (Flow_state.recovery flow);
      (* Reset sender state as if the unacked segments were never sent. *)
      Flow_state.set_seq flow (Flow_state.snd_una flow);
      Flow_state.set_tx_sent flow 0;
      Flow_state.set_dupack_cnt flow 0;
      Flow_state.set_in_recovery flow false;
      maybe_send t flow core;
      arm_tlp t flow core)

(* --- Receive processing ------------------------------------------------ *)

let sample_rtt t flow (tcp : Tcp_header.t) =
  match tcp.Tcp_header.options.Tcp_header.timestamp with
  | Some (_, ecr) when ecr > 0 ->
    let rtt = (now_us t - ecr) * 1000 in
    if rtt >= 0 then
      Flow_state.set_rtt_est flow
        (if Flow_state.rtt_est flow = 0 then rtt
         else ((7 * Flow_state.rtt_est flow) + rtt) / 8)
  | _ -> ()

(* ACK processing, one path for every policy: cumulative advance, then the
   policy's duplicate-ACK verdict. Reno keeps the seed's triple-dup-ACK
   go-back-N rewind (§3.1 exception 1), its counting/threshold decision in
   {!Tas_recovery.Reno}; SACK-class policies feed duplicate ACKs and SACK
   blocks to the scoreboard engine and repair losses selectively. The
   recovery hooks on the cumulative branch leave a Reno flow untouched: its
   scoreboard stays empty, its episode flag false, and [arm_tlp] /
   [arm_reo] act only under [Rack_tlp]. *)
let process_ack t flow pkt core =
  let tcp = pkt.Packet.tcp in
  let st = Flow_state.recovery flow in
  let acked = Seq32.diff tcp.Tcp_header.ack (Flow_state.snd_una flow) in
  Flow_state.set_window flow
    (tcp.Tcp_header.window lsl Flow_state.peer_wscale flow);
  let blocks = tcp.Tcp_header.options.Tcp_header.sack in
  if acked > 0 then begin
    (* Accept any ACK covering bytes still in the transmit buffer. After a
       fast-retransmit rewind the receiver can cumulatively ACK past
       snd_nxt (it had the later segments buffered); fast-forward. *)
    if acked <= Ring.used (Flow_state.tx_buf flow) then begin
      Ring.advance_tail (Flow_state.tx_buf flow) acked;
      if acked >= Flow_state.tx_sent flow then begin
        Flow_state.set_seq flow tcp.Tcp_header.ack;
        Flow_state.set_tx_sent flow 0
      end
      else Flow_state.set_tx_sent flow (Flow_state.tx_sent flow - acked);
      Flow_state.set_dupack_cnt flow 0;
      Flow_state.set_cnt_ackb flow (Flow_state.cnt_ackb flow + acked);
      if tcp.Tcp_header.flags.Tcp_header.ece then
        Flow_state.set_cnt_ecnb flow (Flow_state.cnt_ecnb flow + acked);
      sample_rtt t flow tcp;
      (* Cumulative progress restarts the probe/reorder clocks: bump the
         generation so pending timers dissolve, then re-arm below. *)
      Rec.State.bump_gen st;
      st.Rec.State.tlp_armed <- false;
      st.Rec.State.reo_armed <- false;
      recovery_on_ack t flow core ~una:tcp.Tcp_header.ack ~blocks ~dup_acks:0;
      (if Flow_state.tx_interest flow then begin
         Flow_state.set_tx_interest flow false;
         match find_context t (Flow_state.context flow) with
         | Some ctx -> Context.post_writable ctx flow
         | None -> () (* application exited; flow teardown in progress *)
       end);
      maybe_send t flow core;
      arm_tlp t flow core;
      arm_reo t flow core
    end
    else begin
      (* ACK beyond what the fast path sent (e.g. of a slow-path FIN). *)
      t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
      t.exception_handler pkt
    end
  end
  else if
    acked = 0
    && Flow_state.tx_sent flow > 0
    && Bytes.length pkt.Packet.payload = 0
  then begin
    match st.Rec.State.kind with
    | Rec.Policy.Reno -> (
      match
        Rec.Reno.on_dup_ack ~dupack_cnt:(Flow_state.dupack_cnt flow)
          ~in_recovery:(Flow_state.in_recovery flow)
      with
      | Rec.Reno.Count cnt -> Flow_state.set_dupack_cnt flow cnt
      | Rec.Reno.Enter_recovery ->
        Flow_state.set_dupack_cnt flow (Flow_state.dupack_cnt flow + 1);
        Flow_state.set_in_recovery flow true;
        (* Fast recovery: rewind the sender as if the segments beyond the
           duplicate ACK had not been sent (§3.1 exception 1); the slow
           path sees cnt_frexmits and cuts the flow's rate. *)
        Flow_state.set_cnt_frexmits flow (Flow_state.cnt_frexmits flow + 1);
        t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
        trace_ev t Trace.Fast_rexmit ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        Flow_state.set_seq flow (Flow_state.snd_una flow);
        Flow_state.set_tx_sent flow 0;
        Flow_state.set_dupack_cnt flow 0;
        maybe_send t flow core)
    | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
      Flow_state.set_dupack_cnt flow (Flow_state.dupack_cnt flow + 1);
      recovery_on_ack t flow core ~una:(Flow_state.snd_una flow) ~blocks
        ~dup_acks:(Flow_state.dupack_cnt flow);
      arm_tlp t flow core;
      arm_reo t flow core
  end

let process_data t flow pkt core =
  let tcp = pkt.Packet.tcp in
  let payload = pkt.Packet.payload in
  let seg_len = Bytes.length payload in
  let ce = pkt.Packet.ip.Ipv4_header.ecn = Ipv4_header.Ce in
  let rx_buf = Flow_state.rx_buf flow in
  let window = Ring.free rx_buf in
  let verdict =
    if t.config.Config.rx_ooo_enabled then
      Ooo.handle (Flow_state.ooo flow) ~exp:(Flow_state.ack flow) ~window
        ~seg_start:tcp.Tcp_header.seq ~seg_len
    else begin
      (* Simple go-back-N receive: only the exact next segment is accepted
         (the Fig. 7 "TAS simple recovery" ablation). *)
      let exp = Flow_state.ack flow in
      if Seq32.lt tcp.Tcp_header.seq exp then begin
        let dup = Seq32.diff exp tcp.Tcp_header.seq in
        if dup >= seg_len then Ooo.Duplicate
        else
          Ooo.Deliver
            {
              write_at = exp;
              write_len = Int.min (seg_len - dup) window;
              advance = Int.min (seg_len - dup) window;
            }
      end
      else if tcp.Tcp_header.seq = exp then begin
        let n = Int.min seg_len window in
        if n = 0 then Ooo.Drop
        else Ooo.Deliver { write_at = exp; write_len = n; advance = n }
      end
      else Ooo.Drop
    end
  in
  match verdict with
  | Ooo.Deliver { write_at; write_len; advance } ->
    if write_len > 0 then begin
      let src_off = Seq32.diff write_at tcp.Tcp_header.seq in
      Ring.write_at rx_buf
        ~pos:(Flow_state.rx_offset_of_seq flow write_at)
        payload ~off:src_off ~len:write_len
    end;
    Ring.advance_head rx_buf advance;
    Flow_state.set_ack flow (Seq32.add (Flow_state.ack flow) advance);
    if pkt.Packet.span >= 0 then begin
      Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
        ~hop:Span.Ctx_notify ~core:(Core.id core)
        ~flow:(Flow_state.opaque flow);
      (* Carry the span across the coalesced context queue to the app's
         read; first sampled packet wins until delivery clears it. *)
      if Flow_state.rx_span flow < 0 then
        Flow_state.set_rx_span flow pkt.Packet.span
    end;
    (match find_context t (Flow_state.context flow) with
    | Some ctx -> Context.post_readable ctx flow
    | None -> () (* application exited; flow teardown in progress *));
    send_ack t flow ~ece:ce
  | Ooo.Store { write_at; write_len } ->
    let src_off = Seq32.diff write_at tcp.Tcp_header.seq in
    Ring.write_at rx_buf
      ~pos:(Flow_state.rx_offset_of_seq flow write_at)
      payload ~off:src_off ~len:write_len;
    t.stats.ooo_stored <- t.stats.ooo_stored + 1;
    trace_ev t Trace.Ooo_store ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    (* Duplicate ACK tells the sender what we are still waiting for. *)
    send_ack t flow ~ece:ce
  | Ooo.Duplicate -> send_ack t flow ~ece:ce
  | Ooo.Drop ->
    t.stats.payload_drops <- t.stats.payload_drops + 1;
    trace_ev t Trace.Payload_drop ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    send_ack t flow ~ece:ce

(* Last consumer of an RX packet recycles its pooled payload. Safe only
   because every delivery path out of [process] — ring writes, exception
   handling, reinjection — either copies the bytes out or takes its own
   reference before this runs. *)
let release_pkt pkt =
  match Packet.release pkt with
  | Some buf -> Buf_pool.give (Buf_pool.local ()) buf
  | None -> ()

(* Flow lookup with the vector-pass memo: consecutive same-flow segments
   hit the memoized entry and skip the table (and its lock cost) the way a
   batched DPDK loop keeps the previous flow's state hot. *)
let memo_reset t = t.memo.m_flow <- None

let lookup_flow t pkt =
  let m = t.memo in
  let ip = pkt.Packet.ip and tcp = pkt.Packet.tcp in
  match m.m_flow with
  | Some _ as r
    when
      m.m_src_ip = ip.Ipv4_header.src
      && m.m_src_port = tcp.Tcp_header.src_port
      && m.m_dst_ip = ip.Ipv4_header.dst
      && m.m_dst_port = tcp.Tcp_header.dst_port -> r
  | _ ->
    let r = Flow_table.find t.flows (Packet.four_tuple_at_receiver pkt) in
    (match r with
    | Some _ ->
      m.m_flow <- r;
      m.m_src_ip <- ip.Ipv4_header.src;
      m.m_src_port <- tcp.Tcp_header.src_port;
      m.m_dst_ip <- ip.Ipv4_header.dst;
      m.m_dst_port <- tcp.Tcp_header.dst_port
    | None -> m.m_flow <- None);
    r

let rec process t pkt core =
  (if not (Packet.well_formed pkt) then begin
     (* Header-corrupted frame (IP length inconsistent with the actual
        headers + payload): drop before touching any flow state. *)
     t.stats.malformed_drops <- t.stats.malformed_drops + 1;
     trace_ev t Trace.Malformed_drop ~core:(Core.id core) ~flow:(-1)
   end
   else process_valid t pkt core);
  release_pkt pkt

and process_valid t pkt core =
  if pkt.Packet.span >= 0 then
    Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
      ~hop:Span.Fp_rx ~core:(Core.id core) ~flow:(-1);
  let tcp = pkt.Packet.tcp in
  let flags = tcp.Tcp_header.flags in
  if flags.Tcp_header.syn || flags.Tcp_header.rst || flags.Tcp_header.fin then begin
    t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
    trace_ev t Trace.Exception_fwd ~core:(Core.id core) ~flow:(-1);
    t.exception_handler pkt
  end
  else begin
    match lookup_flow t pkt with
    | None ->
      t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
      trace_ev t Trace.Exception_fwd ~core:(Core.id core) ~flow:(-1);
      t.exception_handler pkt
    | Some flow ->
      (match tcp.Tcp_header.options.Tcp_header.timestamp with
      | Some (ts_val, _) -> Flow_state.set_ts_recent flow ts_val
      | None -> ());
      if Bytes.length pkt.Packet.payload = 0 then begin
        t.stats.rx_ack_packets <- t.stats.rx_ack_packets + 1;
        trace_ev t Trace.Rx_ack ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        process_ack t flow pkt core
      end
      else begin
        t.stats.rx_data_packets <- t.stats.rx_data_packets + 1;
        trace_ev t Trace.Rx_data ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        process_ack t flow pkt core;
        process_data t flow pkt core
      end
  end

(* --- Burst (vector) receive -------------------------------------------- *)

(* One vector pass over [count] packets of [pkts]: flow lookup, seq/ack
   update and emission run per segment as in [process], but the pass-local
   flow memo amortizes the table lookup across runs of same-flow segments —
   the DPDK-burst discipline of the paper's poll loop. Order within the
   burst is arrival order, so per-flow ordering is preserved for any
   interleaving of flows. *)
let process_burst t pkts ~count core =
  if count < 0 || count > Array.length pkts then
    invalid_arg "Fast_path.process_burst: count out of range";
  if count > 0 then begin
    memo_reset t;
    t.stats.rx_bursts <- t.stats.rx_bursts + 1;
    t.stats.rx_burst_packets <- t.stats.rx_burst_packets + count;
    for k = 0 to count - 1 do
      process t pkts.(k) core
    done;
    memo_reset t
  end

(* Drain the backlog in bursts of at most [fp_burst_size]: packets keep
   arriving while the core works off earlier ones, so under load each
   drain finds a naturally formed batch — exactly how a DPDK poll loop
   sees deeper bursts as it falls behind. *)
let drain_backlog t idx core =
  t.drain_armed.(idx) <- false;
  let b = t.backlogs.(idx) in
  let burst_cap = Array.length t.scratch in
  while b.bl_len > 0 do
    let n = Int.min b.bl_len burst_cap in
    let cap = Array.length b.bl_buf in
    for i = 0 to n - 1 do
      let j = (b.bl_head + i) mod cap in
      t.scratch.(i) <- b.bl_buf.(j);
      b.bl_buf.(j) <- t.dummy_pkt
    done;
    b.bl_head <- (b.bl_head + n) mod cap;
    b.bl_len <- b.bl_len - n;
    process_burst t t.scratch ~count:n core;
    Array.fill t.scratch 0 n t.dummy_pkt
  done

let rx_cost t pkt =
  let c = t.config in
  if Bytes.length pkt.Packet.payload = 0 then
    c.Config.fp_driver_cycles + c.Config.fp_ack_rx_cycles
  else c.Config.fp_driver_cycles + c.Config.fp_rx_cycles

let attach t =
  t.drain_thunks <-
    Array.init (Array.length t.cores) (fun idx ->
        let core = t.cores.(idx) in
        fun () -> drain_backlog t idx core);
  Nic.set_rx_handler t.nic (fun ~queue pkt ->
      let idx = queue mod Array.length t.cores in
      let core = t.cores.(idx) in
      let now = Sim.now t.sim in
      (* A core that has been idle long enough has blocked (§3.4); charge
         the kernel wakeup latency before it starts polling again. *)
      let asleep = now - t.last_rx_time.(idx) > t.config.Config.idle_block_ns in
      t.last_rx_time.(idx) <- now;
      let cycles = rx_cost t pkt in
      let cat =
        if Bytes.length pkt.Packet.payload = 0 then Core.Ack_rx
        else Core.Driver_rx
      in
      (* Enqueue, charge the packet's cycles, and make sure one drain pass
         is scheduled. Packets charged behind an armed drain are picked up
         by it — the cost model is per packet while the processing pass is
         batched. *)
      backlog_push t.backlogs.(idx) pkt;
      if t.drain_armed.(idx) then Core.charge core ~cat ~cycles
      else begin
        t.drain_armed.(idx) <- true;
        if asleep then
          Core.run_after core ~cat ~delay:wakeup_ns ~cycles
            t.drain_thunks.(idx)
        else Core.run core ~cat ~cycles t.drain_thunks.(idx)
      end)

let reinject t pkt =
  let tuple = Packet.four_tuple_at_receiver pkt in
  match Flow_table.find t.flows tuple with
  | None -> ()
  | Some flow ->
    let core = core_of_flow t flow in
    let cat =
      if Bytes.length pkt.Packet.payload = 0 then Core.Ack_rx
      else Core.Driver_rx
    in
    (* The reinjected packet goes through [process] (and its release) a
       second time; hold a reference across the scheduling gap. *)
    Packet.retain pkt;
    Core.run core ~cat ~cycles:(rx_cost t pkt) (fun () -> process t pkt core)

(* Per-core idle fraction over the window since the previous call, for
   every configured core. Active cores report clamped [0,1] idle from
   their busy-ns delta; inactive cores read 1.0 (their snapshot still
   refreshes so reactivation starts clean). One consumer per instance:
   each call advances the shared snapshots. *)
let core_idle_fractions t ~window_ns =
  Array.init (Array.length t.cores) (fun i ->
      let busy = Core.busy_ns t.cores.(i) in
      let delta = busy - t.busy_snapshot.(i) in
      t.busy_snapshot.(i) <- busy;
      if i < t.active then
        max 0.0
          (min 1.0 (1.0 -. (float_of_int delta /. float_of_int window_ns)))
      else 1.0)

let idle_core_total t ~window_ns =
  let active = t.active in
  let fractions = core_idle_fractions t ~window_ns in
  let total = ref 0.0 in
  for i = 0 to active - 1 do
    total := !total +. fractions.(i)
  done;
  !total
