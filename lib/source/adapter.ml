open Relalg
open Delta
open Sim

type announce_mode = Immediate | Periodic of float | Never
type outage_mode = Refuse | Black_hole

type poll_error =
  | Unavailable of { u_source : string; u_until : float option }
  | Timed_out of { t_source : string; t_timeout : float }

type retention = Keep_all | Keep_last of int

exception Adapter_error of string

type t = {
  a_kind : string;
  a_name : string;
  a_engine : Engine.t;
  a_relation_names : unit -> string list;
  a_schema : string -> Schema.t;
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

let err fmt = Format.kasprintf (fun s -> raise (Adapter_error s)) fmt

let kind t = t.a_kind
let name t = t.a_name
let engine t = t.a_engine
let relation_names t = t.a_relation_names ()
let schema t rel = t.a_schema rel
let announce_mode t = t.a_announce_mode ()
let announces t = announce_mode t <> Never
let ann_delay t = t.a_ann_delay ()
let comm_delay t = t.a_comm_delay ()
let q_proc_delay t = t.a_q_proc_delay ()

let connect t ~comm_delay ~q_proc_delay handler =
  t.a_connect ~comm_delay ~q_proc_delay handler

let load t rel bag = t.a_load rel bag
let set_filter t ~relation ~attrs ~cond = t.a_set_filter ~relation ~attrs ~cond
let commit t md = t.a_commit md
let current t rel = t.a_current rel
let version t = t.a_version ()
let flush_announcements t = t.a_flush_announcements ()
let try_poll t ?timeout requests = t.a_try_poll ?timeout requests

let poll_error_to_string = function
  | Unavailable { u_source; u_until } ->
    let until =
      match u_until with
      | Some u -> Printf.sprintf " (until %g)" u
      | None -> ""
    in
    Printf.sprintf "source %s unavailable%s" u_source until
  | Timed_out { t_source; t_timeout } ->
    Printf.sprintf "poll of %s timed out after %g" t_source t_timeout

let poll t requests =
  match try_poll t requests with
  | Ok answer -> answer
  | Error e -> err "%s" (poll_error_to_string e)

let set_outages t ?mode windows = t.a_set_outages ?mode windows
let is_down t = t.a_is_down ()
let set_channel_policy t policy = t.a_set_channel_policy policy
let set_link_up t up = t.a_set_link_up up
let channel t = t.a_channel ()
let in_flight t = t.a_in_flight ()
let history t = t.a_history ()
let set_retention t r = t.a_set_retention r
let release t ~upto = t.a_release ~upto
let history_length t = t.a_history_length ()
let state_at_version t v = t.a_state_at_version v
let commit_time_of_version t v = t.a_commit_time_of_version v
let next_commit_time_after t v = t.a_next_commit_time_after v
let announcements_sent t = t.a_announcements_sent ()
let polls_served t = t.a_polls_served ()
let poll_failures t = t.a_poll_failures ()
