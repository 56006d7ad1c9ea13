(** Experiment registry: every paper table and figure, addressable by id. *)

type entry = {
  id : string;  (** e.g. "f4", "t1" *)
  title : string;
  run : ?quick:bool -> Format.formatter -> unit;
}

val all : entry list
val find : string -> entry option

val run_entry : ?quick:bool -> entry -> Format.formatter -> float
(** Run one experiment with a structured artifact capture around it, write
    [BENCH_<id>.json] (into [$TAS_BENCH_DIR], default the current
    directory), and return the elapsed wall-clock seconds. *)

val run_selection :
  ?quick:bool -> ?jobs:int -> entry list -> Format.formatter -> unit
(** Run a list of experiments, one [BENCH_<id>.json] each. With [jobs > 1]
    the experiments run in parallel on up to [jobs] domains
    ({!Tas_parallel.map}, so experiments may fan out again inside); outputs
    and artifacts are merged in submission order, so everything except each
    artifact's trailing ["timing"] object is byte-identical to a serial run.
    Each artifact's ["timing"] records the job's own wall-clock
    ([elapsed_s]) and the batch's [run_wall_s], [serial_estimate_s] (sum of
    per-job wall-clocks) and [speedup]. Default [jobs = 1] (serial).
    @raise Invalid_argument if [jobs < 1]. *)

val run_all : ?quick:bool -> ?jobs:int -> Format.formatter -> unit
(** {!run_selection} over {!all}. *)
