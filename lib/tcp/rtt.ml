type t = {
  mutable srtt : int;
  mutable rttvar : int;
  mutable rto : int;
  mutable backoff_factor : int;
  initial_rto : int;
  min_rto : int;
}

let min_rto_floor = 1_000_000 (* 1 ms *)
let max_rto = 4_000_000_000 (* 4 s *)

let create ?(initial_rto_ns = 10_000_000) ?(min_rto_ns = min_rto_floor) () =
  (* The configurable lower bound can only raise the floor, never sink the
     RTO below the hard 1 ms clamp. *)
  let min_rto = Int.max min_rto_floor min_rto_ns in
  { srtt = 0; rttvar = 0; rto = initial_rto_ns; backoff_factor = 1;
    initial_rto = initial_rto_ns; min_rto }

let clamp_rto t v = Int.max t.min_rto (Int.min max_rto v)

let sample ?(retransmitted = false) t rtt_ns =
  (* Karn's algorithm: an ACK that may acknowledge a retransmission gives
     an ambiguous round trip — take no sample (the backoff factor, reset
     separately on unambiguous progress, keeps the RTO inflated). *)
  if not retransmitted then begin
    if t.srtt = 0 then begin
      t.srtt <- rtt_ns;
      t.rttvar <- rtt_ns / 2
    end
    else begin
      (* RFC 6298 with alpha = 1/8, beta = 1/4. *)
      let err = abs (t.srtt - rtt_ns) in
      t.rttvar <- ((3 * t.rttvar) + err) / 4;
      t.srtt <- ((7 * t.srtt) + rtt_ns) / 8
    end;
    t.rto <- clamp_rto t (t.srtt + Int.max 1000 (4 * t.rttvar))
  end

let srtt_ns t = t.srtt
let rttvar_ns t = t.rttvar

let rto_ns t =
  if t.srtt = 0 then clamp_rto t (t.initial_rto * t.backoff_factor)
  else clamp_rto t (t.rto * t.backoff_factor)

let backoff t = if t.backoff_factor < 64 then t.backoff_factor <- t.backoff_factor * 2
let reset_backoff t = t.backoff_factor <- 1
