(** Trace-recording JIT tier: hot-loop traces compiled to fused
    superinstruction closures (DESIGN.md §10).

    When a backedge's per-run counter crosses
    {!Machine.state.trace_threshold}, one loop iteration is recorded
    through the reference stepper and compiled into a fused closure
    chain: pc chaining constant-folded, straight-line words replayed
    through the shared {!Ops} bodies, cycle costs and flat-slot
    recorder charges pre-summed per straight-line segment, guards at
    every conditional side-exiting back to per-method closure code at
    the precise pc/register state.  Recording traces through calls
    (bounded depth), replaying the engine's call/return machinery with
    a receiver-class guard at virtual sites.  An entry precheck (worst-case
    iteration cost against fuel gate, timer, adaptive safepoint, switch
    bit and method version) makes the elision of per-word checks sound,
    so traced execution is bit-identical to the reference on every
    observable.  Hot side exits are themselves recorded and spliced
    into their guard as branch traces keyed by divergence target
    (switch target, branch direction, receiver class — a polymorphic
    inline cache at virtual sites), growing a trace tree whose
    worst-case path bound is raised before any patch becomes visible.
    Recording runs at reference speed, so the tier is governed by
    length caps, per-site attempt caps, a per-run waste budget for
    aborted recordings, and a retirement heuristic that de-installs
    traces whose entries exit too early to pay for their prechecks.
    [trace_threshold = max_int] (the default) disables the tier
    entirely. *)

val backedge : Machine.state -> int -> int -> bool
(** [backedge st site ni]: the trace gate, called from the engine's
    compiled backedge yieldpoint once every cheaper duty (adaptive poll,
    migration, thread switch) has declined, with [ni] the resume index
    just past the yieldpoint.  Runs the site's compiled trace while the
    precheck admits iterations, or records and compiles one when the
    site turns hot.  Returns true when execution advanced (the caller
    returns to the dispatcher, the frame position having been written
    back); false when nothing ran and the caller should continue into
    its own compiled continuation. *)

val invalidate : Machine.state -> int -> unit
(** Invalidate every installed trace; called by {!Engine.hot_swap} when
    the adaptive tier installs a new version of method [id].  Traces
    record through calls and so may inline any method's code, which
    makes per-method invalidation unsound — invalidation is global, and
    sites re-record against the current world.  No-op on runs without
    trace state. *)

val tier_on : Machine.state -> bool
(** Whether the trace tier is armed for this run. *)

(** {1 Event taxonomy} — diagnostic counters modeled on lambdachine's
    Stats.h: process-wide, cross-run, never part of simulated
    observables.  Dumped by [isf --stats]. *)

val stats : unit -> (string * int) list
(** [(event name, count)] for EV_RECORD, EV_ABORT_TRACE, EV_COMPILE,
    EV_TRACE (trace entries), EV_EXIT (guard side exits),
    EV_INVALIDATE. *)

val reset_stats : unit -> unit
