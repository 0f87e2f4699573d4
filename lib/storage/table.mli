(** Mutable stored relations with optional hash indexes.

    A table holds the "current population" repository of a VDP node
    (the ['R'] repository of Sec. 6.4). Tables are bags; set nodes
    simply never acquire multiplicities above one. Secondary hash
    indexes support the key-based lookups of Example 2.3 and give join
    evaluation its cheap equality probes. *)

open Relalg
open Delta

type t

exception Table_error of string

val create : ?indexes:string list list -> name:string -> Schema.t -> t
(** [create ~indexes ~name schema] makes an empty table. Each element
    of [indexes] is an attribute list to maintain a hash index on; the
    schema's key (if any) is always indexed. *)

val name : t -> string
val schema : t -> Schema.t

val insert : ?mult:int -> t -> Tuple.t -> unit
val delete : ?mult:int -> t -> Tuple.t -> unit
(** Monus deletion (clamped at zero), keeping indexes in sync. *)

val load : t -> Bag.t -> unit
(** Replace the whole contents. *)

val clear : t -> unit

val contents : t -> Bag.t
(** The current population (O(1): the table's own bag, not a copy).
    Read-only, and consumed by the table's next update. *)

val apply_delta : t -> Rel_delta.t -> unit

val cardinal : t -> int
val support_cardinal : t -> int

val mem : t -> Tuple.t -> bool
val mult : t -> Tuple.t -> int

val has_index_on : t -> string list -> bool

val probe : t -> string list -> Value.t list -> (Tuple.t -> int -> unit) -> unit
(** [probe t attrs values f] calls [f tuple mult] for every stored
    tuple matching [values] on [attrs], through the hash index on
    exactly those attributes — the O(1)-per-probe path used by
    incremental join propagation.
    @raise Table_error when no such index exists. *)

val probe1 : t -> string -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** Single-attribute {!probe} without the key-list allocation. *)

(** {1 Access path}

    Every store-served read goes through {!select}, which picks the
    access path itself: a probe of an index whose attributes the
    condition pins to finitely many values, otherwise a scan. *)

type access =
  | Probe  (** the answer came from index probes plus a residual filter *)
  | Scan  (** the answer came from a full scan *)

val access_to_string : access -> string
(** ["probe"] or ["scan"]. *)

val select : t -> attrs:string list -> Predicate.t -> Bag.t * access
(** [select t ~attrs cond] is
    [Bag.project attrs (Bag.select cond (contents t))] together with the
    access path that computed it. When {!Predicate.eq_values} pins
    every attribute of some index, each pinned value tuple is probed
    (the schema-key index first, then the index with the most
    attributes) and [cond] is applied in full to the probed tuples; a
    probe charges one tuple op, and there are as many probes as pinned
    value tuples. Otherwise — or when the probes would outnumber the
    stored tuples — the table is scanned at [support_cardinal] tuple
    ops.
    @raise Table_error if [attrs] or [cond] names an unknown attribute. *)

val delta_join :
  ?on:Predicate.t ->
  ?filter:(Tuple.t -> bool) ->
  Rel_delta.t ->
  t ->
  Rel_delta.t option
(** [delta_join d t]: the signed join [d ⋈ contents t], computed by
    probing [t]'s persistent join-key index — one probe per delta atom
    instead of a key table rebuilt over the whole stored bag. [None]
    when no index matches the join keys of [on]; callers fall back to
    the generic hash join. [filter] (default: keep all) screens stored
    tuples before they are combined — the push-down of a selection
    sitting over the table in the joined expression. *)

(** {1 Statistics}

    Table statistics feed the cost-based join chooser ({!Joinopt} via
    the mediator's stats hook) and the CLI profile report. *)

type index_stats = {
  ix_on : string list;  (** indexed attributes, in order *)
  ix_distinct : int;  (** distinct key values currently present *)
  ix_max_chain : int;  (** longest per-key chain (distinct tuples) *)
}

type stats = {
  st_rows : int;  (** bag cardinality, multiplicities included *)
  st_support : int;  (** distinct tuples *)
  st_indexes : index_stats list;
}

val stats : t -> stats
(** O(distinct keys) per index: cells are counted, not tuples. *)

val pp_stats : Format.formatter -> stats -> unit

val bytes_estimate : t -> int
(** Rough space estimate (for the space-vs-performance tables of the
    Sec. 5.3 experiments): tuples * arity * word size. *)

val pp : Format.formatter -> t -> unit
