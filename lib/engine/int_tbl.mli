(** Hash table on [int] keys for per-event paths.

    [equal] is int equality rather than the generic table's polymorphic
    [compare], which is a C call. [Int.hash] is [Hashtbl.hash], so bucket
    and fold order are exactly those of a generic [Hashtbl] with the same
    history: swapping one for the other moves no output. *)

include Hashtbl.S with type key = int
