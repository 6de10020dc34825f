(** The one on-disk record format: every byte the reproduction
    persists — [--checkpoint] cells ({!Robust}), the serve journal
    ([Serve.Journal]) and run-cache entries ({!Runcache}) — is written
    and verified here.

    {b Frame.}  A payload (the caller's [Marshal] string) is persisted
    as

    {v magic (4 bytes) | length (8 bytes, big-endian) | MD5 (16 bytes) | payload v}

    where the MD5 covers [length ‖ payload].  A frame is {e verifiable}
    when its magic matches, its length fits the file and the digest
    checks.  No payload is handed back before its frame verifies.

    {b Append-only log} (checkpoint, journal).  The first frame holds
    the writer's meta fingerprint; each later frame is one record,
    appended and flushed individually under a mutex.  Opening a log
    decides what a bad frame means:
    - a bad frame with no verifiable frame anywhere after it is a
      {e torn tail} (a kill mid-append): it is truncated away before
      anything is appended, and the work it recorded re-runs;
    - a bad frame followed by a verifiable frame is {e corruption}: open
      raises [Failure] naming the file and the byte offset;
    - a non-empty file with no verifiable first frame (some other file,
      or a log of an older format) and a meta mismatch raise [Failure]
      too.
    A refused file is left untouched; [bin/isf.ml] exits 2.

    {b Single-record file} (run-cache entries).  Two frames — the
    record's full key, then its payload — written to a temporary file
    and renamed into place, so no reader sees a partial file.  Both
    frames verify before the keys are compared. *)

val frame : string -> string
(** The frame of a payload. *)

(** {1 Append-only log} *)

type log

val open_log :
  what:string -> owner:string -> flag:string -> meta:string -> string ->
  log * string list
(** Open (creating if missing) the log at a path; return its record
    payloads, oldest first.  Refusals name the file as [what], the
    writer as [owner] and the option to change as [flag]. *)

val append : log -> string -> unit
(** Frame, append and flush one record.  Domain-safe. *)

val close : log -> unit

(** {1 Single-record atomic file} *)

val replace : dir:string -> string -> string -> bool
(** [replace ~dir path bytes]: temp file in [dir], renamed onto [path];
    [false] if the write failed.  The last of concurrent renames wins. *)

val write_record : dir:string -> string -> key:string -> string -> bool
(** {!replace} [path] with the record file of [key] and a payload. *)

val read_record :
  key:string -> string -> [ `Missing | `Corrupt | `Hit of string ]
(** [`Corrupt] unless the file is a verifiable record file.  Raises
    [Failure] naming the file when it holds a different key: a digest
    collision of its name. *)

val stale_tmp_age : float
(** Age in seconds past which a temporary file of {!replace} is the
    debris of a crashed writer. *)

val sweep_stale_tmps : string -> int
(** Remove a directory's temporary files older than {!stale_tmp_age};
    returns how many.  Younger ones may belong to a live writer. *)
