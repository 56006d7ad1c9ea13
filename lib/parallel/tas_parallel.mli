(** Parallel map over OCaml 5 domains with a deterministic merge. *)

val map : jobs:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs ~f inputs] applies [f] to every input on
    [min jobs (Array.length inputs)] domains (the caller plus spawned ones)
    and returns the results in submission order, whichever domain ran what.
    Every job runs even when some raise; the first exception by submission
    order is then re-raised. [jobs = 1] runs inline; [f] may call [map].
    @raise Invalid_argument if [jobs < 1]. *)
