(** One compiled definition per straight-line opcode, shared by every
    compiled tier: the Fast engine's per-word chain and its fused
    straight-line runs ({!Engine}), and the trace tier's fused chains
    ({!Trace}).

    A straight-line word is one that cannot suspend, reschedule, call,
    or charge a cycle amount without a static value: [Move], [Unop],
    [Binop], [Get_field]/[Put_field], [Get_static]/[Put_static],
    [New_object], [Array_load]/[Array_store]/[Array_length],
    [Instance_test] and the one-argument [print]/[rand] intrinsics.

    {!compile} resolves a word's operands, offsets and class ids once
    and returns its {e effect-only} body plus two static facts.  The
    body performs the word's register, heap, d-cache, output and RNG
    effects — and raises its runtime errors — in exactly
    [Machine.step]'s order, then tail-calls its continuation; it never
    charges the word's static cycles and never reads [st.cycles], so
    each tier applies {!t.charge} at its own granularity, as long as it
    lands before the next fuel check (DESIGN.md §5).  [Machine.step]
    itself stays a separate implementation: it is the oracle the
    differential suites compare these bodies against. *)

type k = Machine.state -> unit

type t = {
  body : k -> k;
      (** [body next]: the word's effects, then [next st].  Apply once per
          compiled position; the result is an arity-1 closure. *)
  charge : int;  (** static cycle charge of the word *)
  dmiss : bool;
      (** the word may miss the d-cache (one [icache_miss] charge, applied
          by the body itself through [Machine.data_access]) *)
}

val straight_line : Ir.Lir.instr -> bool
(** The one classification of straight-line words (see above). *)

val compile : Costs.t -> Program.t -> Program.meth -> Ir.Lir.instr -> t
(** [compile costs prog m ins] for a straight-line word [ins] of method
    [m] (named in array-bounds errors).  Raises [Invalid_argument] on any
    other word. *)

val unary : k -> k
(** Identity behind an optimization barrier.  A tier writing its own
    body as [fun next -> unary @@ fun st -> ...] keeps the result of
    [body next] a plain arity-1 closure: without the barrier the two
    functions merge into one of arity 2, and every call of the partial
    application would go through a currying stub. *)

val operand : Ir.Lir.operand -> Machine.frame -> int
(** Operand evaluator resolved at compile time: a register read or an
    immediate. *)
