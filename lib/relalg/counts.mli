(** Mutable tuple -> count hash maps: the physical backing of {!Bag}
    multiplicities and of delta repositories.

    Counts stored are nonzero; an update whose sum reaches 0 removes
    the binding. The layout is a dense insertion-ordered arena plus an
    open-addressing tuple -> slot index, so point operations are O(1)
    (amortized) and iteration is a sequential scan in insertion order.

    The map is ephemeral: updates change it in place, and nothing
    keeps old versions. Every update bumps the map's {!stamp}; the
    value-level wrappers ({!Bag}, {!Delta.Rel_delta}) record the stamp
    their handle was made at and raise {!Consumed} when a handle is
    read after a later update. A caller that needs two versions takes
    an explicit {!copy}. *)

type t

exception Consumed
(** A handle was used after the map behind it was updated through a
    newer handle, or a map was updated while it was being iterated. *)

val create : ?size:int -> unit -> t
val copy : t -> t
(** Order-preserving copy sharing nothing mutable with the original. *)

val get : t -> Tuple.t -> int
(** Current count, 0 when absent. *)

val add : t -> Tuple.t -> int -> unit
(** [add t tup m] adds the signed count [m] in place; a sum of 0
    removes the binding. [m = 0] is a no-op that leaves the stamp
    alone. *)

val stamp : t -> int
(** Number of updates made so far. *)

val check : t -> int -> unit
(** [check t s] @raise Consumed unless [stamp t = s]. *)

val size : t -> int
(** Number of bindings (distinct tuples), O(1). *)

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Insertion order (deterministic, but carries no semantic meaning).
    @raise Consumed if the callback updates the map. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit

val bindings : t -> (Tuple.t * int) list
(** Sorted by {!Tuple.compare} (deterministic output). *)

val equal : t -> t -> bool
