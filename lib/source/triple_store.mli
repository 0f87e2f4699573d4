(** A triple (entity–attribute–value) store behind the relational
    adapter contract.

    The native data model is not relational: the store holds
    {e entities}, each a bag of [(entity, attribute, value)] triples,
    and its native mutations are {!put} (assert a new entity with its
    property triples) and {!delete} (retract one entity). Following
    the RDF-integration line of work, the store {e exports} a
    relational façade: each entity classified under relation [R]
    renders as one tuple of [R], with bag multiplicity given by the
    number of entities rendering to the same tuple.

    The bridge into Squirrel's update algebra is the delta mapping:
    every native mutation is translated into a signed-bag delta
    against the relational export and committed through an embedded
    {!Source_db}, which supplies versioning, the history delta log,
    announcement channels, outage windows and retention — so a triple
    store participates in announcement-based view maintenance, VAP
    polling and the Sec. 3 correctness checker without the mediator
    knowing its shape. Conversely a relational [commit] arriving
    through the adapter (e.g. from the workload driver) is translated
    back into entity asserts/retracts, keeping both views of the data
    aligned.

    Obtain the mediator-facing view with {!adapter}
    ([a_kind = "triple"]). *)

open Relalg
open Sim

type t

val create :
  engine:Engine.t ->
  name:string ->
  relations:(string * Schema.t) list ->
  announce:Adapter.announce_mode ->
  unit ->
  t
(** An empty store whose relational export has the given schemas. *)

val put : t -> relation:string -> (string * Value.t) list -> int
(** Assert a new entity classified under [relation], with one triple
    per property. Returns the fresh entity id. The properties must
    bind exactly the relation's schema (export rendering is total).
    Commits one version of the relational export: a single-tuple
    insertion delta.
    @raise Adapter.Adapter_error on schema mismatch. *)

val delete : t -> int -> unit
(** Retract an entity by id; commits the matching single-tuple
    deletion delta. @raise Adapter.Adapter_error if the id is unknown
    (already retracted, or never asserted). *)

val get : t -> int -> (string * (string * Value.t) list) option
(** [(relation, properties)] of a live entity. *)

val triples : t -> (int * string * Value.t) list
(** The native contents, flattened to triples, ordered by entity id.
    (The relation classification is itself a triple with attribute
    ["rdf:type"].) *)

val entity_count : t -> int

val name : t -> string
val source_db : t -> Source_db.t
(** The embedded relational export — useful for tests asserting that
    the façade and the native state agree; treat as read-only (commit
    through {!adapter} or the native mutations instead, or the native
    mirror desynchronizes). *)

val adapter : t -> Adapter.t
(** The mediator-facing contract. [a_commit] translates relational
    deltas into native asserts/retracts (retracting, per tuple, the
    most recently asserted matching entity) before committing them to
    the export, so reflect vectors and version cadence are identical
    to a relational twin fed the same deltas. *)
