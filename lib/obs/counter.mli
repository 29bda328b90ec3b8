(** Named atomic counters and gauges.

    Counters live in a process-wide registry keyed by name; [make] is
    idempotent (the same name always yields the same cell), so independent
    modules — or repeated functor instantiations — can share a counter by
    agreeing on its name.  Increments are lock-free ([Atomic]) and safe from
    any domain.

    Gauges are read-on-snapshot callbacks for values owned elsewhere (e.g.
    the field-operation tallies of [Kp_field.Counting]). *)

type t

val make : string -> t
(** Find-or-create the counter [name]. *)

val name : t -> string
val incr : t -> unit
val add : t -> int -> unit
val value : t -> int

val find : string -> int option
(** Current value of the counter [name], if it has been created. *)

val register_gauge : string -> (unit -> int) -> unit
(** Register (or replace) a named read-only gauge sampled at snapshot
    time.  A gauge that raises reports 0. *)

val unregister_gauge : string -> unit
(** Remove the gauge [name], if one is registered, so snapshots stop
    listing it and its closure can be collected. *)

val gauges_snapshot : unit -> (string * int) list
(** Only the registered gauges, sampled now, sorted by name — the live
    instantaneous view (queue depths, in-flight work, breaker states) as
    opposed to {!snapshot}, which interleaves them with the monotone
    counters.  Safe from any domain or thread. *)

val snapshot : unit -> (string * int) list
(** All counters and gauges with their current values, sorted by name. *)

val reset : unit -> unit
(** Zero every counter.  Gauges are not affected (their backing state is
    owned by the registering module). *)
