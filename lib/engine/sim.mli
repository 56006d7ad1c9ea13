(** Discrete-event simulation core.

    A simulator holds a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant fire in scheduling order, which
    keeps runs fully deterministic. Events may be cancelled; cancellation
    removes the event in O(log n) and drops its closure at once. *)

type t
(** A simulator instance. *)

type event
(** Handle for a scheduled event, usable for cancellation. *)

val create : unit -> t
(** [create ()] is a fresh simulator with the clock at zero and no events. *)

val now : t -> Time_ns.t
(** [now sim] is the current virtual time. *)

val schedule : t -> Time_ns.t -> (unit -> unit) -> event
(** [schedule sim dt f] schedules [f] to run [dt] nanoseconds from now.
    [dt] must be non-negative.
    @raise Invalid_argument if [dt < 0]. *)

val schedule_at : t -> Time_ns.t -> (unit -> unit) -> event
(** [schedule_at sim time f] schedules [f] at absolute virtual [time], which
    must not be in the past.
    @raise Invalid_argument if [time < now sim]. *)

val post : t -> Time_ns.t -> (unit -> unit) -> unit
(** [post sim dt f] is {!schedule} without a cancellation handle, for the
    fire-and-forget event storm of the hot path (port serialization,
    propagation, core dispatch, pacing): callers that never cancel document
    that fact and skip binding a handle. Below the queue's high-water mark
    it allocates nothing.
    @raise Invalid_argument if [dt < 0]. *)

val post_at : t -> Time_ns.t -> (unit -> unit) -> unit
(** [post_at sim time f] is {!schedule_at} without a cancellation handle;
    see {!post}.
    @raise Invalid_argument if [time < now sim]. *)

val events_fired : t -> int
(** Total events executed since [create] (the perf bench's events/sec
    numerator). *)

val cancel : t -> event -> unit
(** [cancel sim ev] removes [ev] from the queue in O(log n); [sim] no longer
    holds its closure. Cancelling an event that has already fired or been
    cancelled is a no-op, whatever event has since reused its queue slot. *)

val pending : t -> int
(** [pending sim] is the number of queued (not fired, not cancelled)
    events: the size of the heap. *)

val run : ?until:Time_ns.t -> t -> unit
(** [run sim] executes events in time order until the queue is empty, or — if
    [until] is given — until the clock would pass [until] (later events stay
    queued). The clock then reads [max (now sim) until]: it never moves
    backwards, so a [run ~until] earlier than the current time fires nothing
    and leaves the clock where it is. *)

val step : t -> bool
(** [step sim] executes the single next event. Returns [false] if the queue
    was empty. *)

val periodic : t -> ?start:Time_ns.t -> Time_ns.t -> (unit -> unit) -> event ref
(** [periodic sim ~start interval f] runs [f] every [interval] ns, the first
    time at [start] from now (default [interval]). The returned ref always
    holds the handle of the next occurrence, so the series can be stopped
    with [cancel sim !handle]. *)
