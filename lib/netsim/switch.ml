module Sim = Tas_engine.Sim
module Packet = Tas_proto.Packet
module Span = Tas_telemetry.Span
module Int_tbl = Tas_engine.Int_tbl

type route = Single of int | Ecmp of int array

type t = {
  sim : Sim.t;
  forwarding_delay : int;
  mutable ports : Port.t option array;
  mutable port_count : int;
  routes : route Int_tbl.t;
  mutable no_route : int;
  mutable span : Span.t;
  (* Forwarding FIFO: the delay is constant, so packets leave in arrival
     order and one persistent thunk sends the head — no closure per packet.
     [fwd_pkts.(i)] goes out on [fwd_outs.(i)]. *)
  mutable fwd_pkts : Packet.t array;
  mutable fwd_outs : Port.t array;
  mutable fwd_head : int;
  mutable fwd_len : int;
  fwd_dummy : Packet.t;
  mutable fwd_thunk : unit -> unit;
}

let fwd_push t pkt out =
  let cap = Array.length t.fwd_pkts in
  if t.fwd_len = cap then begin
    let n = Int.max 16 (2 * cap) in
    let pkts = Array.make n t.fwd_dummy and outs = Array.make n out in
    for i = 0 to t.fwd_len - 1 do
      let j = (t.fwd_head + i) mod cap in
      pkts.(i) <- t.fwd_pkts.(j);
      outs.(i) <- t.fwd_outs.(j)
    done;
    t.fwd_pkts <- pkts;
    t.fwd_outs <- outs;
    t.fwd_head <- 0
  end;
  let i = (t.fwd_head + t.fwd_len) mod Array.length t.fwd_pkts in
  t.fwd_pkts.(i) <- pkt;
  t.fwd_outs.(i) <- out;
  t.fwd_len <- t.fwd_len + 1

let fwd_pop t =
  assert (t.fwd_len > 0);
  let i = t.fwd_head in
  let pkt = t.fwd_pkts.(i) in
  t.fwd_pkts.(i) <- t.fwd_dummy;
  t.fwd_head <- (i + 1) mod Array.length t.fwd_pkts;
  t.fwd_len <- t.fwd_len - 1;
  Port.enqueue t.fwd_outs.(i) pkt

let create sim ?(forwarding_delay = 500) () =
  let t =
    {
      sim;
      forwarding_delay;
      ports = Array.make 8 None;
      port_count = 0;
      routes = Int_tbl.create 64;
      no_route = 0;
      span = Span.disabled ();
      fwd_pkts = [||];
      fwd_outs = [||];
      fwd_head = 0;
      fwd_len = 0;
      fwd_dummy = Packet.placeholder ();
      fwd_thunk = ignore;
    }
  in
  t.fwd_thunk <- (fun () -> fwd_pop t);
  t

let set_span t span = t.span <- span

let add_port t port =
  if t.port_count = Array.length t.ports then begin
    let bigger = Array.make (2 * t.port_count) None in
    Array.blit t.ports 0 bigger 0 t.port_count;
    t.ports <- bigger
  end;
  t.ports.(t.port_count) <- Some port;
  t.port_count <- t.port_count + 1;
  t.port_count - 1

let port t i =
  match if i < 0 || i >= t.port_count then None else t.ports.(i) with
  | Some p -> p
  | None -> invalid_arg "Switch.port: bad port id"

let add_route t dst port_id = Int_tbl.replace t.routes dst (Single port_id)

let add_ecmp_route t dst port_ids =
  match port_ids with
  | [] -> invalid_arg "Switch.add_ecmp_route: empty group"
  | [ p ] -> add_route t dst p
  | ps -> Int_tbl.replace t.routes dst (Ecmp (Array.of_list ps))

let input t pkt =
  match Int_tbl.find t.routes pkt.Packet.ip.Tas_proto.Ipv4_header.dst with
  | exception Not_found -> t.no_route <- t.no_route + 1
  | route ->
    let port_id =
      match route with
      | Single p -> p
      | Ecmp ps -> ps.(Packet.flow_hash pkt mod Array.length ps)
    in
    (match t.ports.(port_id) with
    | None -> t.no_route <- t.no_route + 1
    | Some out ->
      if pkt.Packet.span >= 0 then
        Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
          ~hop:Span.Switch_fwd ~core:(-1) ~flow:(-1);
      if t.forwarding_delay = 0 then Port.enqueue out pkt
      else begin
        fwd_push t pkt out;
        Sim.post t.sim t.forwarding_delay t.fwd_thunk
      end)

let no_route_drops t = t.no_route

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  Metrics.counter_fn m ~labels ~help:"packets dropped for lack of a route"
    "switch_no_route_drops" (fun () -> t.no_route);
  for i = 0 to t.port_count - 1 do
    match t.ports.(i) with
    | None -> ()
    | Some p ->
      Port.register p m ~labels:(labels @ [ ("port", string_of_int i) ]) ()
  done
