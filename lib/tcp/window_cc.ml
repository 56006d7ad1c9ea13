type algorithm = Newreno | Dctcp

type t = {
  algorithm : algorithm;
  mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable alpha : float;
  (* DCTCP per-window bookkeeping: bytes acked and bytes marked since the
     last alpha update, plus the next sequence milestone (tracked here as a
     byte countdown of one window). *)
  mutable window_acked : int;
  mutable window_marked : int;
  mutable window_left : int;
  mutable ca_accum : int;  (* congestion-avoidance byte accumulator *)
}

let dctcp_g = 1.0 /. 16.0

let create algorithm ~mss ~initial_window =
  {
    algorithm;
    mss;
    cwnd = initial_window;
    ssthresh = max_int / 2;
    alpha = 0.0;
    window_acked = 0;
    window_marked = 0;
    window_left = initial_window;
    ca_accum = 0;
  }

let cwnd t = t.cwnd
let in_slow_start t = t.cwnd < t.ssthresh
let ssthresh t = t.ssthresh
let alpha t = t.alpha

let min_cwnd t = t.mss

let grow t acked =
  if in_slow_start t then t.cwnd <- t.cwnd + acked
  else begin
    (* +1 MSS per cwnd of acked bytes. *)
    t.ca_accum <- t.ca_accum + acked;
    if t.ca_accum >= t.cwnd then begin
      t.ca_accum <- t.ca_accum - t.cwnd;
      t.cwnd <- t.cwnd + t.mss
    end
  end

let dctcp_window_rollover t =
  if t.window_left <= 0 then begin
    let fraction =
      if t.window_acked = 0 then 0.0
      else float_of_int t.window_marked /. float_of_int t.window_acked
    in
    t.alpha <- ((1.0 -. dctcp_g) *. t.alpha) +. (dctcp_g *. fraction);
    if t.window_marked > 0 then begin
      (* DCTCP control law: cwnd <- cwnd * (1 - alpha/2). *)
      t.ssthresh <-
        Int.max (min_cwnd t)
          (int_of_float (float_of_int t.cwnd *. (1.0 -. (t.alpha /. 2.0))));
      t.cwnd <- Int.max (min_cwnd t) t.ssthresh
    end;
    t.window_acked <- 0;
    t.window_marked <- 0;
    t.window_left <- t.cwnd
  end

let on_ack t ~acked ~ecn =
  match t.algorithm with
  | Newreno -> grow t acked
  | Dctcp ->
    t.window_acked <- t.window_acked + acked;
    if ecn then t.window_marked <- t.window_marked + acked;
    t.window_left <- t.window_left - acked;
    (* Only grow when the current window saw no marks; DCTCP reacts once
       per window via the rollover. *)
    if not ecn then grow t acked;
    dctcp_window_rollover t

let on_fast_retransmit t =
  t.ssthresh <- Int.max (min_cwnd t) (t.cwnd / 2);
  t.cwnd <- t.ssthresh;
  t.ca_accum <- 0;
  t.window_left <- Int.min t.window_left t.cwnd

let on_timeout t =
  t.ssthresh <- Int.max (min_cwnd t) (t.cwnd / 2);
  t.cwnd <- min_cwnd t;
  t.ca_accum <- 0;
  t.window_acked <- 0;
  t.window_marked <- 0;
  t.window_left <- t.cwnd
