(** Per-engine circuit breaker — the graceful-degradation switch.

    A breaker watches one engine's terminal outcomes.  While {e closed}
    the engine is used normally; [threshold] consecutive infrastructure
    failures (detected faults, exhausted retry budgets, blown deadlines —
    {e not} certified [Singular] verdicts, which are answers about the
    input) {e open} it: requests route past the engine to the next rung of
    the {!Engines} ladder (block → scalar → elimination) without paying
    for an engine that is currently failing.  The block and scalar rungs
    have one each; the dense rung, which stands alone, and elimination,
    the deterministic last resort, have none.  A [kp] command builds a
    fresh ladder, so its breakers start closed and see one call.  After
    [cooldown_ns] the breaker {e half-opens}: the next request probes the
    engine once — success re-closes it (re-promotion), failure re-opens
    it for another cooldown.

    The clock is injected so tests can drive the cooldown deterministically;
    it defaults to {!Kp_obs.Clock.now_ns}.  State transitions are counted
    ([serve.breaker.<name>.open/reopen/close]) and the current state is
    exported as a gauge ([serve.breaker.<name>.state]: 0 closed, 1
    half-open, 2 open).

    Single-owner: mutate ([admits]/[record_*]) from one thread.  The gauge
    mirror is atomic, so metrics snapshots from other threads are safe. *)

type t

type state = Closed | Half_open | Open

val create :
  ?threshold:int -> ?cooldown_ns:int64 -> ?now:(unit -> int64) -> string -> t
(** [create name]: a fresh closed breaker.  Defaults: [threshold = 3]
    consecutive failures, [cooldown_ns] = 2 s. *)

val state : t -> state
(** Current state, cooldown expiry applied (an [Open] breaker whose
    cooldown has passed reports — and becomes — [Half_open]). *)

val admits : t -> bool
(** May the engine be tried now?  [Closed] and [Half_open] (the probe)
    admit; [Open] refuses until the cooldown expires. *)

val record_success : t -> unit
(** The engine delivered: reset the failure run and close. *)

val record_failure : t -> unit
(** One more infrastructure failure: trips to [Open] at [threshold]
    consecutive failures (immediately when [Half_open] — a failed probe
    re-opens). *)

val consecutive_failures : t -> int
val name : t -> string

val state_code : t -> int
(** 0 closed / 1 half-open / 2 open — the gauge encoding, readable from
    any thread. *)
