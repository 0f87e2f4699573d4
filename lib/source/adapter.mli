(** The source-adapter interface: what the mediator requires of a
    source, independent of how the source stores its data.

    The paper frames Squirrel as integrating {e autonomous,
    heterogeneous} sources, but the mediator's algorithms only ever
    rely on a narrow contract: announce subscription over a FIFO
    channel ({!connect}), batched algebra polling against a single
    source state ({!try_poll}), version history for the correctness
    checker ({!history}, {!state_at_version}), and outage/retention
    controls for fault injection and bounded-history deployments. An
    {!t} packages exactly that contract as a record of closures, so
    any backend able to expose a relational export — the relational
    {!Source_db}, a triple/key-value store ({!Triple_store}), or
    another mediator's exports ([Squirrel.Med_source]) — can sit
    behind one mediator, and mediators compose.

    The canonical announce/outage/poll-error/retention types live
    here; {!Source_db} re-exports them (with equations, so existing
    [Source_db.Immediate]-style constructors keep working). Accessor
    functions mirror {!Source_db}'s names one-for-one, making consumer
    migration mechanical: [Source_db.try_poll src] becomes
    [Adapter.try_poll a]. *)

open Relalg
open Delta
open Sim

type announce_mode =
  | Immediate  (** flush the net delta at every commit *)
  | Periodic of float  (** flush every [ann_delay] time units *)
  | Never  (** virtual contributor: never announces *)

(** What a poll experiences while the source is inside an outage
    window. *)
type outage_mode =
  | Refuse  (** a fast failure: a refusal travels straight back *)
  | Black_hole
      (** the request vanishes; the poller only learns via its
          timeout *)

type poll_error =
  | Unavailable of { u_source : string; u_until : float option }
  | Timed_out of { t_source : string; t_timeout : float }

(** History log retention. *)
type retention =
  | Keep_all
  | Keep_last of int  (** keep at most the last [n] versions *)

exception Adapter_error of string
(** Raised by adapter operations the backend cannot honour: an unknown
    relation in {!schema}, a write against a read-only backend
    (mediator-backed sources), a [load] after the first commit. *)

type t = {
  a_kind : string;
      (** backend family, e.g. ["relational"], ["triple"],
          ["mediator"] — informational (CLI listings, tests) *)
  a_name : string;
  a_engine : Engine.t;
  a_relation_names : unit -> string list;
  a_schema : string -> Schema.t;  (** @raise Adapter_error if unknown *)
  a_announce_mode : unit -> announce_mode;
  a_ann_delay : unit -> float;
  a_comm_delay : unit -> float;
  a_q_proc_delay : unit -> float;
  a_connect :
    comm_delay:float -> q_proc_delay:float -> (Message.t -> unit) -> unit;
  a_load : string -> Bag.t -> unit;
  a_set_filter :
    relation:string -> attrs:string list -> cond:Predicate.t -> unit;
  a_commit : Multi_delta.t -> unit;
  a_current : string -> Bag.t;
  a_version : unit -> int;
  a_flush_announcements : unit -> unit;
  a_try_poll :
    ?timeout:float ->
    (string * Expr.t) list ->
    (Message.answer, poll_error) result;
  a_set_outages : ?mode:outage_mode -> (float * float) list -> unit;
  a_is_down : unit -> bool;
  a_set_channel_policy : Sim.Channel.policy option -> unit;
  a_set_link_up : bool -> unit;
  a_channel : unit -> Message.t Sim.Channel.t option;
  a_in_flight : unit -> int;
  a_history : unit -> (float * int) list;
  a_set_retention : retention -> unit;
  a_release : upto:int -> unit;
  a_history_length : unit -> int;
  a_state_at_version : int -> (string * Bag.t) list;
  a_commit_time_of_version : int -> float;
  a_next_commit_time_after : int -> float option;
  a_announcements_sent : unit -> int;
  a_polls_served : unit -> int;
  a_poll_failures : unit -> int;
}
(** A connected-or-connectable source, as the mediator sees it. The
    closures share state with the backend, so several adapter records
    over one backend are interchangeable views of the same source. *)

val err : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Adapter_error} with a formatted message. *)

(** {1 Accessors}

    One per field, named after the {!Source_db} operation each
    mirrors. *)

val kind : t -> string
val name : t -> string
val engine : t -> Engine.t
val relation_names : t -> string list
val schema : t -> string -> Schema.t

val announce_mode : t -> announce_mode

val announces : t -> bool
(** [true] unless the mode is [Never] — the source's deltas eventually
    reach the mediator without polling, the precondition for
    self-maintained views over it. *)

val ann_delay : t -> float
(** Worst-case announcement holding delay ([d_ann] of Theorem 7.2):
    [0] for [Immediate], the period for [Periodic], [infinity] for
    [Never]. *)

val comm_delay : t -> float
val q_proc_delay : t -> float

val connect :
  t -> comm_delay:float -> q_proc_delay:float -> (Message.t -> unit) -> unit
(** Attach the mediator end: announcements and poll answers are
    delivered to the handler over a FIFO channel. *)

val load : t -> string -> Bag.t -> unit
(** Set a relation's initial (version 0) contents; the source keeps
    its own copy, the caller keeps the bag.
    @raise Adapter_error after the first commit or on read-only
    backends. *)

val set_filter :
  t -> relation:string -> attrs:string list -> cond:Predicate.t -> unit

val commit : t -> Multi_delta.t -> unit
(** Apply a transaction atomically: one new version, logged and
    staged for announcement. The delta is only read. Backends with a
    native (non-relational) update model translate the signed-bag
    delta into native mutations; read-only backends raise
    {!Adapter_error}. *)

val current : t -> string -> Bag.t
(** The live relation: read-only, and consumed by the next commit. *)

val version : t -> int
val flush_announcements : t -> unit

val poll : t -> (string * Expr.t) list -> Message.answer
(** {!try_poll} without a timeout; failures raise {!Adapter_error}.
    Must run in a simulation process. *)

val try_poll :
  t ->
  ?timeout:float ->
  (string * Expr.t) list ->
  (Message.answer, poll_error) result
(** Evaluate labelled algebra queries against a single state of the
    source; pending announcements are flushed first so the FIFO
    guarantees the ECA precondition. Failures are values. *)

val poll_error_to_string : poll_error -> string

(** {1 Fault injection} *)

val set_outages : t -> ?mode:outage_mode -> (float * float) list -> unit
val is_down : t -> bool
val set_channel_policy : t -> Sim.Channel.policy option -> unit
val set_link_up : t -> bool -> unit
val channel : t -> Message.t Sim.Channel.t option
val in_flight : t -> int

(** {1 History access (for the correctness checker)} *)

val history : t -> (float * int) list
(** Chronological [(commit_time, version)] list of the versions whose
    state {!state_at_version} can still rebuild, bounded by the
    retention policy and the release watermark. *)

val set_retention : t -> retention -> unit
val release : t -> upto:int -> unit
val history_length : t -> int

val state_at_version : t -> int -> (string * Bag.t) list
(** The state at a retained version, as fresh bags the caller owns.
    @raise Adapter_error (or a backend error) for an unknown or pruned
    version. *)

val commit_time_of_version : t -> int -> float
val next_commit_time_after : t -> int -> float option

(** {1 Statistics} *)

val announcements_sent : t -> int
val polls_served : t -> int
val poll_failures : t -> int
