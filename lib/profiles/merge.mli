(** Cross-shard profile aggregation (DESIGN.md §12): folds the decoded
    profiles of many runs — all seven kinds — into one canonical
    aggregate with deterministic output.

    The aggregate is a pure-data canonical form: key-sorted tables,
    totally-ordered histograms (count desc, key asc), key-sorted CCT
    children.  {!merge} is exact summation everywhere — associative and
    commutative — so the result is byte-identical regardless of shard
    count and merge order.  Value-profile (TNV) summaries merge by
    union-sum {e without} re-truncation: a truncating merge would be
    order-dependent, while the union-sum keeps the Misra–Gries
    undercount bound additively across shards.

    Regions still open in a path profile (activations that never
    flushed) are per-run transients and are dropped at the aggregation
    boundary.

    {!render}/{!parse} are exact inverses; the rendering is the on-disk
    format of [isf merge] inputs and the payload of the daemon's
    [PROFILE] frames. *)

type cct_node = { count : int; children : ((string * int) * cct_node) list }

type t = {
  call_edges : ((string * int * string) * int) list;
  fields : (string * int) list;
  reads : int;
  writes : int;
  edges : ((string * int * int) * int) list;
  values : ((string * int) * ((int * int) list * int)) list;
  paths : ((string * int * int) * int) list;
  receivers : ((string * int) * ((string * int) list * int)) list;
  walks : int;
  cct : cct_node;
}

val empty : t
val is_empty : t -> bool

val of_collector : Collector.t -> t
(** Snapshot a collector into canonical form. *)

val to_collector : t -> Collector.t
(** Rebuild a collector through the order-preserving decode entry
    points, inserting in canonical order — reports rendered from the
    result are deterministic. *)

val merge : t -> t -> t
(** Exact, associative, commutative. *)

val merge_list : t list -> t
(** Left fold of {!merge}; {!empty} for [[]]. *)

val format_magic : string

val render : t -> string
(** Canonical text serialization: equal aggregates render to equal
    bytes. *)

exception Parse_error of string

val parse : string -> t
(** Exact inverse of {!render}; raises {!Parse_error} on malformed
    input. *)

val digest : t -> string
(** MD5 hex of {!render} — the content address of an aggregate. *)
