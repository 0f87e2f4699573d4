(* The benchmark's own metric arithmetic, on hand-made inputs. *)

open Relalg
open Squirrel

let feq = Alcotest.float 1e-9

let percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check feq "p99 of 1..100" 99.0 (Stats.percentile xs 99.0);
  Alcotest.check feq "p100 is the max" 100.0 (Stats.percentile xs 100.0);
  Alcotest.check feq "single sample" 7.0 (Stats.percentile [| 7.0 |] 99.0);
  Alcotest.check feq "input left unsorted" 100.0 xs.(0)

let tail_support () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Stats.samples_beyond ~n:1000 99.0);
  Alcotest.(check bool) "1000 samples support p99" true (Stats.tail_supported ~n:1000 99.0);
  Alcotest.(check bool) "999 samples do not" false (Stats.tail_supported ~n:999 99.0);
  Alcotest.(check int) "250 samples: 12 beyond p95" 12 (Stats.samples_beyond ~n:250 95.0);
  Alcotest.(check bool) "199 samples do not support p95" false (Stats.tail_supported ~n:199 95.0);
  Alcotest.(check bool) "20 samples support p50" true (Stats.tail_supported ~n:20 50.0)

(* A trace whose clock and op counter the test advances by hand. *)
let self_ops () =
  let ops = ref 0 and clock = ref 0.0 in
  let tr = Obs.Trace.create ~now:(fun () -> !clock) ~ops_counter:(fun () -> !ops) () in
  Obs.Trace.with_span tr "batch" (fun _ ->
      ops := !ops + 5;
      Obs.Trace.with_span tr "delta" (fun _ -> ops := !ops + 3);
      Obs.Trace.with_span tr "apply" (fun _ ->
          ops := !ops + 4;
          Obs.Trace.with_span tr "delta" (fun _ -> ops := !ops + 1));
      ops := !ops + 2);
  let root = List.hd (Obs.Trace.roots tr) in
  Alcotest.(check int) "inclusive root ops" 15 root.Obs.Trace.ops;
  Alcotest.(check int) "root self ops" 7 (Stats.self_ops root);
  let by_name = Stats.self_ops_by_name tr in
  Alcotest.(check int) "apply self ops exclude its child" 4 (by_name "apply");
  Alcotest.(check int) "delta self ops summed over spans" 4 (by_name "delta");
  Alcotest.(check int) "unknown span" 0 (by_name "poll");
  clock := 5.0;
  Obs.Trace.with_span tr "delta" (fun _ -> ops := !ops + 6);
  Alcotest.(check int) "every delta span" 10 (Stats.self_ops_by_name tr "delta");
  Alcotest.(check int) "only spans opened since t=5" 6
    (Stats.self_ops_by_name ~since:5.0 tr "delta")

let update_tx ~time intervals =
  Med.Update_tx
    { ut_time = time; ut_reflect = []; ut_atoms = 1; ut_txs = 1; ut_intervals = intervals }

let lags () =
  let commits =
    [ (("db1", 1), 1.0); (("db1", 2), 1.5); (("db1", 3), 3.0); (("db2", 1), 0.5) ]
  in
  let commit_time src v = List.assoc_opt (src, v) commits in
  let events =
    [
      Med.Update_tx
        { ut_time = 0.0; ut_reflect = []; ut_atoms = 0; ut_txs = 0; ut_intervals = [] };
      update_tx ~time:2.0 [ ("db1", (0, 2)); ("db2", (0, 1)) ];
      update_tx ~time:3.25 [ ("db1", (2, 3)) ];
    ]
  in
  Alcotest.(check (list feq))
    "one lag per version, batch time minus commit time" [ 1.0; 0.5; 1.5; 0.25 ]
    (Stats.visible_lags ~commit_time events);
  Alcotest.check_raises "a version the driver never committed"
    (Stats.Unlogged_version ("db1", 4))
    (fun () ->
      ignore (Stats.visible_lags ~commit_time [ update_tx ~time:4.0 [ ("db1", (3, 4)) ] ]))

let schema = Schema.make ~key:[ "k" ] [ ("k", Value.TInt); ("amt", Value.TInt) ]
let row k amt = Tuple.of_list [ ("k", Value.Int k); ("amt", Value.Int amt) ]
let fields k amt = Some [ ("k", Value.Int k); ("amt", Value.Int amt) ]

let point_check () =
  let hist = [ (5, row 1 30); (2, row 1 20) ] in
  let at v = Stats.row_at ~base:(row 1 10) hist ~version:v in
  Alcotest.(check bool) "before the first write: base row" true (Tuple.equal (at 1) (row 1 10));
  Alcotest.(check bool) "at a write's version" true (Tuple.equal (at 2) (row 1 20));
  Alcotest.(check bool) "between writes" true (Tuple.equal (at 4) (row 1 20));
  Alcotest.(check bool) "after the last write" true (Tuple.equal (at 9) (row 1 30));
  let ok expected bag = Stats.point_answer_ok ~expected bag in
  let bag rows = Bag.of_tuples schema rows in
  Alcotest.(check bool) "the logged row" true (ok (fields 1 20) (bag [ row 1 20 ]));
  Alcotest.(check bool) "a stale row" false (ok (fields 1 20) (bag [ row 1 10 ]));
  Alcotest.(check bool) "a duplicate" false
    (ok (fields 1 20) (Bag.add (Bag.of_tuples schema [ row 1 20 ]) (row 1 20)));
  Alcotest.(check bool) "a missing row" false (ok (fields 1 20) (Bag.empty schema));
  Alcotest.(check bool) "no row expected, none served" true (ok None (Bag.empty schema));
  Alcotest.(check bool) "no row expected, one served" false
    (ok None (Bag.of_tuples schema [ row 1 20 ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick percentile;
          Alcotest.test_case "tail support" `Quick tail_support;
          Alcotest.test_case "self ops" `Quick self_ops;
          Alcotest.test_case "visible lag" `Quick lags;
          Alcotest.test_case "point answers" `Quick point_check;
        ] );
    ]
