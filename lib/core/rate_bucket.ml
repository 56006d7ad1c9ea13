module Sim = Tas_engine.Sim

type mode = Rate of float | Window of int

type t = {
  sim : Sim.t;
  mutable mode : mode;
  tokens : floatarray;  (* 1 cell, bytes: flat storage so refills on the
                           transmit path never box a float *)
  mutable last_refill : int;
  burst : float;
}

let create sim mode ~burst_bytes =
  let tokens = Float.Array.create 1 in
  Float.Array.set tokens 0 (float_of_int burst_bytes);
  {
    sim;
    mode;
    tokens;
    last_refill = Sim.now sim;
    burst = float_of_int burst_bytes;
  }

let set_control t control =
  match control with
  | Tas_tcp.Interval_cc.Rate_bps r -> t.mode <- Rate r
  | Tas_tcp.Interval_cc.Window_bytes w -> t.mode <- Window w

let mode t = t.mode

let refill t rate_bps =
  let now = Sim.now t.sim in
  let dt = now - t.last_refill in
  if dt > 0 then begin
    let tok =
      Float.Array.get t.tokens 0
      +. (rate_bps /. 8.0 *. (float_of_int dt /. 1e9))
    in
    Float.Array.set t.tokens 0 (if tok > t.burst then t.burst else tok);
    t.last_refill <- now
  end

let tx_budget t ~in_flight ~want =
  match t.mode with
  | Window w -> Int.max 0 (Int.min want (w - in_flight))
  | Rate r ->
    refill t r;
    let tok = Float.Array.get t.tokens 0 in
    let grant = Int.min want (int_of_float tok) in
    if grant > 0 then Float.Array.set t.tokens 0 (tok -. float_of_int grant);
    Int.max 0 grant

(* Allocation-free variant used on the transmit hot path: [-1] encodes
   "no timer needed" (window mode, or tokens already available). *)
let ns_until_bytes_int t n =
  match t.mode with
  | Window _ -> -1
  | Rate r ->
    refill t r;
    let deficit = float_of_int n -. Float.Array.get t.tokens 0 in
    if deficit <= 0.0 then -1
    else if r <= 0.0 then max_int
    else int_of_float (ceil (deficit *. 8.0 /. r *. 1e9))

let ns_until_bytes t n =
  let v = ns_until_bytes_int t n in
  if v < 0 then None else Some v
