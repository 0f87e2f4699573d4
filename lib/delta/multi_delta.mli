(** Deltas spanning several relations.

    A delta "can simultaneously contain atoms that refer to more than
    one relation" (Sec. 6.2); the update queue of a mediator holds
    multi-relation deltas and the IUP smashes the whole queue into a
    single one before propagation.

    The per-relation deltas are ephemeral ({!Rel_delta}): [add] and
    [smash] update the deltas of their first argument in place and
    consume them, so reading a relation of the old multi-delta that
    the update touched raises {!Relalg.Counts.Consumed}. The second
    argument is only read. *)

open Relalg

type t

val empty : t
val is_empty : t -> bool

val singleton : string -> Rel_delta.t -> t
val add : t -> string -> Rel_delta.t -> t
(** [add d name rd] smashes [rd] onto the delta already recorded for
    relation [name], or records a copy of [rd] if there is none. *)

val find : t -> string -> Rel_delta.t option
val relations : t -> string list
val bindings : t -> (string * Rel_delta.t) list

val smash : t -> t -> t
val inverse : t -> t

val restrict : t -> string list -> t
(** Keep only the atoms of the listed relations. The kept deltas are
    shared, so updating the result consumes them in [t] too. *)

val atom_count : t -> int

val apply_env :
  (string -> Bag.t option) -> t -> (string * Bag.t) list
(** Apply each per-relation delta to the corresponding bag from the
    environment, consuming those bags; relations absent from the
    environment are skipped. Returns the updated (relation, bag)
    pairs. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
