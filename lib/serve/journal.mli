(** Append-only job journal — the daemon's crash-recovery log.

    A {!Harness.Store} log of marshaled records; {!Harness.Store}
    defines its format and what a torn tail or a corrupt record means.
    Opening a journal whose meta fingerprint differs from this daemon's
    configuration raises [Failure] — resume must be exact or refused.

    Recovery semantics: a job with a [Submitted] record but no
    [Completed] record was in flight (queued or running) when the
    daemon died and is re-run on restart; a [Completed] record carries
    the canonical result line and is replayed verbatim; [Quarantined]
    records persist the poison list across restarts so a quarantined
    job is never retried, even by a fresh daemon. *)

type record =
  | Meta of string
      (** ignored on replay: the meta fingerprint {!open_} checks is the
          log's first frame *)
  | Submitted of { id : int; client : string; line : string }
  | Completed of { id : int; result : string }
  | Quarantined of { digest : string; report : string }
  | Profile of { id : int; payload : string }
      (** canonical {!Profiles.Merge.render} of a completed job's
          profile, written immediately before its [Completed] record so
          a resumed fleet can still be merged without re-running
          anything. *)

type recovered = {
  pending : (int * string * string) list;
      (** submitted but not completed — (id, client, job line), by id *)
  completed : (int * string) list;  (** (id, result line), by id *)
  quarantined : (string * string) list;  (** (job digest, report) *)
  profiles : (int * string) list;
      (** (id, profile rendering) for completed ids whose [Profile]
          record survived — an id without one is recomputed by the
          merge path through the run cache *)
  next_id : int;  (** 1 + highest id seen *)
}

type t

val open_ : ?meta:string -> string -> t * recovered
(** Open (creating if missing) and replay the journal.  Raises
    [Failure] when the existing journal's meta differs from [meta], and
    when {!Harness.Store.open_log} refuses the file (corrupt, or not a
    journal at all). *)

val append : t -> record -> unit
(** Marshal, frame, append, flush.  Domain-safe. *)

val close : t -> unit
