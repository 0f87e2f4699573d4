(* Adapter-conformance suite: one set of contract checks run against
   every backend family — the relational Source_db, the Triple_store
   (native put/delete mutations mapped into signed-bag deltas), and a
   mediator wrapped as a source (Med_source over a child's
   materialized export). Plus the heterogeneity differential: the same
   fig1 workload over relational and triple backends must produce
   bag-identical answers with identical reflect vectors. *)

open Relalg
open Delta
open Sim
open Sources
open Squirrel
open Workload
open Tutil

(* --- the parametric fixture ------------------------------------------- *)

(* Each backend exposes the same logical relation (schema_s, exported
   as [i_relation]) and a way to insert/delete the tuple keyed by [k]
   through its own mutation path. [i_quiesce] drives the engine far
   enough for the mutation to be visible through the adapter. *)
type inst = {
  i_adapter : Adapter.t;
  i_relation : string;
  i_insert : int -> unit;
  i_delete : int -> unit;
  i_quiesce : unit -> unit;
}

let k_tuple k = s_tuple k (k * 10) (k mod 100)

(* attach a mediator end so polls can travel: answers are filled into
   their ivars, announcements are dropped *)
let connect engine a =
  Adapter.connect a ~comm_delay:0.01 ~q_proc_delay:0.01 (function
    | Message.Update _ -> ()
    | Message.Answer (iv, ans) -> Engine.Ivar.fill engine iv ans)

let relational_inst engine =
  let db =
    Source_db.create ~engine ~name:"db" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let a = Source_db.adapter db in
  let delta f k =
    Multi_delta.singleton "S" (f (Rel_delta.empty schema_s) (k_tuple k))
  in
  connect engine a;
  {
    i_adapter = a;
    i_relation = "S";
    i_insert = (fun k -> Adapter.commit a (delta Rel_delta.insert k));
    i_delete = (fun k -> Adapter.commit a (delta Rel_delta.delete k));
    i_quiesce = (fun () -> Engine.run engine);
  }

let triple_inst engine =
  let ts =
    Triple_store.create ~engine ~name:"db" ~relations:[ ("S", schema_s) ]
      ~announce:Adapter.Immediate ()
  in
  let ids = Hashtbl.create 8 in
  let a = Triple_store.adapter ts in
  connect engine a;
  {
    i_adapter = a;
    i_relation = "S";
    i_insert =
      (fun k ->
        let id = Triple_store.put ts ~relation:"S" (Tuple.to_list (k_tuple k)) in
        Hashtbl.replace ids k id);
    i_delete = (fun k -> Triple_store.delete ts (Hashtbl.find ids k));
    i_quiesce = (fun () -> Engine.run engine);
  }

(* child mediator over one relational source, exporting S identically;
   mutations are commits at the child's own source, surfaced through
   the wrapper after the child's update transaction runs *)
let mediator_inst engine =
  let db =
    Source_db.create ~engine ~name:"dbS" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let b =
    Vdp.Builder.create
      ~source_of:(function "S" -> Some "dbS" | _ -> None)
      ~schema_of:(function "S" -> Some schema_s | _ -> None)
      ()
  in
  Vdp.Builder.add_export b ~name:"E" (Expr.base "S");
  let vdp = Vdp.Builder.build b in
  let child =
    Mediator.create ~engine ~vdp
      ~annotation:(Vdp.Annotation.fully_materialized vdp)
      ~sources:[ Source_db.adapter db ] ()
  in
  Mediator.connect child ();
  Engine.spawn engine (fun () -> Mediator.initialize child);
  Engine.run engine ~until:1.0;
  let ms = Med_source.create child in
  let quiesce () = Engine.run engine ~until:(Engine.now engine +. 5.0) in
  let delta f k =
    Multi_delta.singleton "S" (f (Rel_delta.empty schema_s) (k_tuple k))
  in
  let src = Source_db.adapter db in
  let a = Med_source.adapter ms in
  connect engine a;
  {
    i_adapter = a;
    i_relation = "E";
    i_insert =
      (fun k ->
        Adapter.commit src (delta Rel_delta.insert k);
        quiesce ());
    i_delete =
      (fun k ->
        Adapter.commit src (delta Rel_delta.delete k);
        quiesce ());
    i_quiesce = quiesce;
  }

let backends =
  [
    ("relational", relational_inst);
    ("triple", triple_inst);
    ("mediator", mediator_inst);
  ]

(* --- contract checks --------------------------------------------------- *)

let test_identity mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  Alcotest.(check bool) "kind nonempty" true (Adapter.kind a <> "");
  Alcotest.(check bool)
    "relation listed" true
    (List.mem i.i_relation (Adapter.relation_names a));
  Alcotest.(check bool)
    "schema matches" true
    (Schema.equal (Adapter.schema a i.i_relation) schema_s);
  Alcotest.(check bool) "announces" true (Adapter.announces a)

(* one quiesced mutation round, one version; current state tracks the
   mutations exactly *)
let test_version_cadence mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  let v0 = Adapter.version a in
  i.i_insert 1;
  i.i_quiesce ();
  Alcotest.(check int) "one version per insert" (v0 + 1) (Adapter.version a);
  i.i_insert 2;
  i.i_quiesce ();
  i.i_delete 1;
  i.i_quiesce ();
  Alcotest.(check int) "three versions" (v0 + 3) (Adapter.version a);
  check_bag "current reflects all mutations"
    (Bag.of_tuples schema_s [ k_tuple 2 ])
    (Adapter.current a i.i_relation)

let test_history mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  let v0 = Adapter.version a in
  i.i_insert 1;
  i.i_quiesce ();
  i.i_insert 2;
  i.i_quiesce ();
  let vn = Adapter.version a in
  Alcotest.(check int)
    "history spans v0..vn"
    (vn - v0 + 1)
    (List.length (Adapter.history a));
  check_bag "mid-history state"
    (Bag.of_tuples schema_s [ k_tuple 1 ])
    (List.assoc i.i_relation (Adapter.state_at_version a (v0 + 1)));
  let t1 = Adapter.commit_time_of_version a (v0 + 1) in
  let t2 = Adapter.commit_time_of_version a (v0 + 2) in
  Alcotest.(check bool) "commit times monotone" true (t1 <= t2);
  Alcotest.(check (option (float 1e-9)))
    "next commit after v0+1" (Some t2)
    (Adapter.next_commit_time_after a (v0 + 1));
  Alcotest.(check (option (float 1e-9)))
    "nothing after the last version" None
    (Adapter.next_commit_time_after a vn);
  (* a longer run: the source rebuilds old states from its delta log,
     so every retained version must equal a forward replay of the
     mutations — under Keep_all, under Keep_last 5, after a release *)
  let present = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace present k ()) [ 1; 2 ];
  let replay = Hashtbl.create 64 in
  let record () =
    Hashtbl.replace replay (Adapter.version a)
      (Hashtbl.fold (fun k () acc -> k_tuple k :: acc) present [])
  in
  Hashtbl.replace replay v0 [];
  Hashtbl.replace replay (v0 + 1) [ k_tuple 1 ];
  record ();
  let rng = Random.State.make [| 11 |] in
  let mutate n =
    for _ = 1 to n do
      let k = 1 + Random.State.int rng 6 in
      if Hashtbl.mem present k then begin
        i.i_delete k;
        Hashtbl.remove present k
      end
      else begin
        i.i_insert k;
        Hashtbl.replace present k ()
      end;
      i.i_quiesce ();
      record ()
    done
  in
  let check_retained what =
    List.iter
      (fun (_, v) ->
        check_bag
          (Printf.sprintf "%s: version %d = replay" what v)
          (Bag.of_tuples schema_s (Hashtbl.find replay v))
          (List.assoc i.i_relation (Adapter.state_at_version a v)))
      (Adapter.history a)
  in
  mutate 20;
  Alcotest.(check int)
    "Keep_all retains every version"
    (Adapter.version a - v0 + 1)
    (Adapter.history_length a);
  check_retained "Keep_all";
  Adapter.set_retention a (Adapter.Keep_last 5);
  mutate 4;
  Alcotest.(check int) "Keep_last 5 retains five" 5 (Adapter.history_length a);
  check_retained "Keep_last 5";
  Adapter.release a ~upto:(Adapter.version a - 2);
  Alcotest.(check int) "release prunes below the watermark" 3
    (Adapter.history_length a);
  check_retained "after release";
  Alcotest.(check bool)
    "a pruned version is refused" true
    (match Adapter.state_at_version a (Adapter.version a - 3) with
    | _ -> false
    | exception _ -> true)

(* a poll answers from the current state and stamps the version it
   reflects *)
let test_poll mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  i.i_insert 1;
  i.i_insert 2;
  i.i_quiesce ();
  let result = ref None in
  Engine.spawn engine (fun () ->
      result := Some (Adapter.try_poll a [ ("q", Expr.base i.i_relation) ]));
  Engine.run engine ~until:(Engine.now engine +. 30.0);
  match !result with
  | Some (Ok ans) ->
    Alcotest.(check string)
      "answer names the source" (Adapter.name a) ans.Message.answer_source;
    Alcotest.(check int)
      "answer reflects the current version" (Adapter.version a)
      ans.Message.answer_version;
    check_bag "answer is the current state"
      (Adapter.current a i.i_relation)
      (List.assoc "q" ans.Message.results)
  | Some (Error e) -> Alcotest.fail (Adapter.poll_error_to_string e)
  | None -> Alcotest.fail "poll did not complete"

let test_outage_refusal mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  let now = Engine.now engine in
  Adapter.set_outages a [ (now +. 1.0, now +. 3.0) ];
  let result = ref None in
  Engine.schedule engine ~delay:2.0 (fun () ->
      Engine.spawn engine (fun () ->
          result := Some (Adapter.try_poll a [ ("q", Expr.base i.i_relation) ])));
  Engine.run engine ~until:(now +. 30.0);
  match !result with
  | Some (Error (Adapter.Unavailable { u_until = Some t; u_source })) ->
    Alcotest.(check string) "refusal names the source" (Adapter.name a) u_source;
    Alcotest.(check (float 1e-9)) "refusal carries the window end"
      (now +. 3.0) t
  | Some (Error e) ->
    Alcotest.fail ("expected Unavailable, got " ^ Adapter.poll_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "expected a refusal inside the outage window"
  | None -> Alcotest.fail "poll did not complete"

let test_outage_black_hole mk () =
  let engine = Engine.create () in
  let i = mk engine in
  let a = i.i_adapter in
  let now = Engine.now engine in
  Adapter.set_outages a ~mode:Adapter.Black_hole [ (now, now +. 60.0) ];
  let result = ref None in
  Engine.spawn engine (fun () ->
      result :=
        Some (Adapter.try_poll a ~timeout:2.0 [ ("q", Expr.base i.i_relation) ]));
  Engine.run engine ~until:(now +. 30.0);
  match !result with
  | Some (Error (Adapter.Timed_out { t_timeout; _ })) ->
    Alcotest.(check (float 1e-9)) "timeout echoed" 2.0 t_timeout
  | Some (Error e) ->
    Alcotest.fail ("expected Timed_out, got " ^ Adapter.poll_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "expected a timeout through the black hole"
  | None -> Alcotest.fail "poll did not complete"

(* the mediator-backed source is read-only upstream *)
let test_mediator_read_only () =
  let engine = Engine.create () in
  let i = mediator_inst engine in
  let delta =
    Multi_delta.singleton "E"
      (Rel_delta.insert (Rel_delta.empty schema_s) (k_tuple 9))
  in
  (try
     Adapter.commit i.i_adapter delta;
     Alcotest.fail "expected Adapter_error on upstream commit"
   with Adapter.Adapter_error _ -> ());
  try
    Adapter.load i.i_adapter "E" (Bag.empty schema_s);
    Alcotest.fail "expected Adapter_error on upstream load"
  with Adapter.Adapter_error _ -> ()

(* --- heterogeneity differential ---------------------------------------- *)

(* the same fig1 environment over relational and triple backends, fed a
   scripted identical update sequence: answers must be bag-identical
   and reflect the same source versions *)
let run_fig1 backend =
  let env = Scenario.make_fig1 ~seed:7 ~backend () in
  let med = Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) () in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let db1 = Scenario.source env "db1" and db2 = Scenario.source env "db2" in
  let ins db rel schema tuple delay =
    Engine.schedule env.Scenario.engine ~delay (fun () ->
        Adapter.commit db
          (Multi_delta.singleton rel
             (Rel_delta.insert (Rel_delta.empty schema) tuple)))
  in
  let del db rel schema tuple delay =
    Engine.schedule env.Scenario.engine ~delay (fun () ->
        Adapter.commit db
          (Multi_delta.singleton rel
             (Rel_delta.delete (Rel_delta.empty schema) tuple)))
  in
  ins db1 "R" schema_r (r_tuple 1000 10 1 100) 0.5;
  ins db2 "S" schema_s (s_tuple 500 7 10) 0.7;
  ins db1 "R" schema_r (r_tuple 1001 500 2 100) 0.9;
  ins db1 "R" schema_r (r_tuple 1002 500 3 200) 1.1;
  del db1 "R" schema_r (r_tuple 1000 10 1 100) 1.3;
  ins db2 "S" schema_s (s_tuple 501 8 99) 1.5;
  Scenario.run_to_quiescence env med;
  let ans = ref None in
  Engine.spawn env.Scenario.engine (fun () ->
      ans := Some (Mediator.query med ~node:"T" ()));
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 30.0);
  match !ans with
  | Some a -> (env, a)
  | None -> Alcotest.fail "query did not complete"

let entry_str = function
  | Med.Version v -> Printf.sprintf "v%d" v
  | Med.Current -> "current"

let test_differential () =
  let env_r, ans_r = run_fig1 `Relational in
  let env_t, ans_t = run_fig1 `Triple in
  Alcotest.(check string)
    "backends differ" "triple"
    (Adapter.kind (Scenario.source env_t "db1"));
  check_bag "answers bag-identical across backends" ans_r.Qp.tuples
    ans_t.Qp.tuples;
  Alcotest.(check (list (pair string string)))
    "reflect vectors identical"
    (List.map (fun (s, e) -> (s, entry_str e)) ans_r.Qp.reflect)
    (List.map (fun (s, e) -> (s, entry_str e)) ans_t.Qp.reflect);
  (* the base exports themselves agree, not just the view *)
  List.iter
    (fun (src, rel) ->
      check_bag
        (Printf.sprintf "%s/%s exports agree" src rel)
        (Adapter.current (Scenario.source env_r src) rel)
        (Adapter.current (Scenario.source env_t src) rel))
    [ ("db1", "R"); ("db2", "S") ]

let conformance name check =
  List.map
    (fun (backend, mk) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name backend) `Quick
        (check mk))
    backends

let () =
  Alcotest.run "adapter"
    [
      ("identity", conformance "identity" test_identity);
      ("versions", conformance "version cadence" test_version_cadence);
      ("history", conformance "history" test_history);
      ("poll", conformance "poll" test_poll);
      ("outage refusal", conformance "refusal" test_outage_refusal);
      ("outage black hole", conformance "black hole" test_outage_black_hole);
      ( "read-only upstream",
        [ Alcotest.test_case "mediator-backed" `Quick test_mediator_read_only ]
      );
      ( "heterogeneity differential",
        [ Alcotest.test_case "fig1 relational vs triple" `Quick test_differential ]
      );
    ]
