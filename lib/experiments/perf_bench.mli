(** Hot-path microbenchmarks and the perf-regression gate.

    One ladder of benchmarks measures the simulator on the host wall clock,
    bottom to top: single fast-path primitives (checksum validation, flow
    hash, ring copy, SPSC queue, out-of-order verdict, rate-bucket budget;
    ops/sec), wire-format round trips and sharded flow-table lookups
    (ops/sec and minor words/op), vector receive bursts (packets/sec and
    minor words/packet), simulator event churn (events/sec and minor
    words/event), and end to end bulk TAS<->TAS transfer (packet ops/sec
    and minor words/packet) and pipelined small RPCs (RPCs/sec). Op-loop
    benchmarks share one median-of-3 harness; results go to
    [BENCH_perf.json] under ["metrics"].

    The gate compares a run against a committed baseline artifact
    ([bench/baseline_perf.json], itself a saved [BENCH_perf.json]) with
    per-kind tolerance bands: generous for wall-clock throughput (machine
    dependent), tight for allocations per operation (machine independent). *)

type kind = Throughput | Alloc

type metric = { name : string; value : float; units : string; kind : kind }

val measure : quick:bool -> metric list
(** Run every benchmark once. *)

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  ratio : float;  (** current / baseline *)
  ok : bool;
}

val default_tol_throughput : float
(** 0.75: a throughput metric fails only below 25% of baseline. *)

val default_tol_alloc : float
(** 0.15: an allocation metric fails above 115% of baseline. *)

val check :
  ?tol_throughput:float ->
  ?tol_alloc:float ->
  baseline:Tas_telemetry.Json.t ->
  metric list ->
  verdict list
(** Gate [current] metrics against a baseline artifact's ["metrics"]
    object. Metrics absent from the baseline are not gated. *)

val load_baseline : string -> Tas_telemetry.Json.t
(** Read and parse a baseline artifact.
    @raise Sys_error on unreadable files.
    @raise Tas_telemetry.Json.Parse_error on malformed content. *)

val run : ?quick:bool -> ?baseline:string -> Format.formatter -> bool
(** Measure after a discarded warmup pass, print the results, write
    [BENCH_perf.json] into the bench dir, and — when [baseline] is given —
    print gate verdicts. Returns [false] iff the gate found a regression. *)
