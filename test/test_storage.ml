(* Tests for the mediator-local store: indexed tables and delta
   repositories. *)

open Relalg
open Delta
open Storage
open Tutil

(* every attribute of the rows whose [a] equals [v], through the access
   path *)
let select_eq t a v =
  Table.select t ~attrs:(Schema.attrs (Table.schema t))
    Predicate.(eq (attr a) (Const v))

let access =
  Alcotest.testable
    (fun fmt a -> Format.pp_print_string fmt (Table.access_to_string a))
    ( = )

let test_table_basic () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 2 3);
  Table.insert ~mult:2 t (s_tuple 4 5 6);
  Alcotest.(check int) "cardinal" 3 (Table.cardinal t);
  Alcotest.(check int) "support" 2 (Table.support_cardinal t);
  Alcotest.(check int) "mult" 2 (Table.mult t (s_tuple 4 5 6));
  Table.delete t (s_tuple 4 5 6);
  Alcotest.(check int) "after delete" 1 (Table.mult t (s_tuple 4 5 6));
  Table.delete ~mult:10 t (s_tuple 4 5 6);
  Alcotest.(check int) "monus clamps" 0 (Table.mult t (s_tuple 4 5 6))

let test_table_key_index () =
  let t = Table.create ~name:"S" schema_s in
  for i = 0 to 9 do
    Table.insert t (s_tuple i (i * 10) (i * 3))
  done;
  Alcotest.(check bool) "key indexed" true (Table.has_index_on t [ "s1" ]);
  let hit, path = select_eq t "s1" (Value.Int 4) in
  Alcotest.(check access) "probed" Table.Probe path;
  Alcotest.(check int) "indexed lookup" 1 (Bag.cardinal hit);
  Alcotest.(check bool) "right tuple" true (Bag.mem hit (s_tuple 4 40 12));
  let miss, _ = select_eq t "s1" (Value.Int 99) in
  Alcotest.(check int) "miss" 0 (Bag.cardinal miss)

let test_table_secondary_index () =
  let t = Table.create ~indexes:[ [ "s2" ] ] ~name:"S" schema_s in
  Table.insert t (s_tuple 1 7 0);
  Table.insert t (s_tuple 2 7 0);
  Table.insert t (s_tuple 3 8 0);
  Alcotest.(check bool) "secondary index" true (Table.has_index_on t [ "s2" ]);
  let hits, path = select_eq t "s2" (Value.Int 7) in
  Alcotest.(check access) "probed" Table.Probe path;
  Alcotest.(check int) "two matches" 2 (Bag.cardinal hits)

let test_table_scan_lookup () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 7 0);
  Table.insert t (s_tuple 2 7 0);
  (* no index on s3: falls back to scanning *)
  Alcotest.(check bool) "no index" false (Table.has_index_on t [ "s3" ]);
  let hits, path = select_eq t "s3" (Value.Int 0) in
  Alcotest.(check access) "scanned" Table.Scan path;
  Alcotest.(check int) "scan finds both" 2 (Bag.cardinal hits)

let test_table_index_maintained_through_deletes () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 2 3);
  Table.delete t (s_tuple 1 2 3);
  Alcotest.(check int)
    "index entry removed" 0
    (Bag.cardinal (fst (select_eq t "s1" (Value.Int 1))))

let test_table_apply_delta_and_load () =
  let t = Table.create ~name:"S" schema_s in
  Table.load t (Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 4 5 6 ]);
  let d =
    Rel_delta.insert
      (Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3))
      (s_tuple 7 8 9)
  in
  Table.apply_delta t d;
  check_bag "delta applied"
    (Bag.of_tuples schema_s [ s_tuple 4 5 6; s_tuple 7 8 9 ])
    (Table.contents t);
  Alcotest.(check int)
    "index consistent after load+delta" 1
    (Bag.cardinal (fst (select_eq t "s1" (Value.Int 7))))

let test_table_rejects_bad_tuple () =
  let t = Table.create ~name:"S" schema_s in
  try
    Table.insert t (Tuple.of_list [ ("x", Value.Int 1) ]);
    Alcotest.fail "expected Bag_error"
  with Bag.Bag_error _ -> ()

(* --- access path: probe ≡ scan ------------------------------------------ *)

(* the scan the access path must agree with *)
let scan_oracle t ~attrs cond =
  Bag.project attrs (Bag.select cond (Table.contents t))

let charged f =
  let before = Eval.tuple_ops () in
  let r = f () in
  (r, Eval.tuple_ops () - before)

let key_table () =
  let t = Table.create ~indexes:[ [ "s2"; "s3" ] ] ~name:"S" schema_s in
  for i = 0 to 9 do
    Table.insert t (s_tuple i (i mod 3) (i mod 2))
  done;
  t

let test_select_edge_cases () =
  let t = key_table () in
  let all = Schema.attrs schema_s in
  let case name ~attrs cond ~path ~expect =
    let got, p = Table.select t ~attrs cond in
    Alcotest.(check access) (name ^ ": access") path p;
    check_bag (name ^ ": = scan") (scan_oracle t ~attrs cond) got;
    Alcotest.(check int) (name ^ ": rows") expect (Bag.cardinal got)
  in
  let open Predicate in
  case "k = Null" ~attrs:all (eq (attr "s1") (Const Value.Null)) ~path:Table.Probe
    ~expect:0;
  case "k = 4.0 against Int keys" ~attrs:all (eq (attr "s1") (flt 4.0))
    ~path:Table.Probe ~expect:1;
  case "k = 4.5" ~attrs:all (eq (attr "s1") (flt 4.5)) ~path:Table.Probe ~expect:0;
  case "const = attr" ~attrs:[ "s2" ] (eq (int 5) (attr "s1")) ~path:Table.Probe
    ~expect:1;
  case "residual on a non-key attribute" ~attrs:all
    (conj [ eq (attr "s1") (int 4); gt (attr "s2") (int 1) ])
    ~path:Table.Probe ~expect:0;
  case "residual keeps" ~attrs:all
    (conj [ eq (attr "s1") (int 4); eq (attr "s2") (int 1) ])
    ~path:Table.Probe ~expect:1;
  case "absent key" ~attrs:all (eq (attr "s1") (int 99)) ~path:Table.Probe ~expect:0;
  case "k=1 or k=2" ~attrs:all
    (disj [ eq (attr "s1") (int 1); eq (attr "s1") (int 2) ])
    ~path:Table.Probe ~expect:2;
  case "contradiction" ~attrs:all
    (conj [ eq (attr "s1") (int 1); eq (attr "s1") (int 2) ])
    ~path:Table.Probe ~expect:0;
  case "multi-attribute index" ~attrs:[ "s1" ]
    (conj [ eq (attr "s2") (int 1); eq (attr "s3") (int 0) ])
    ~path:Table.Probe ~expect:1;
  case "half of the multi index" ~attrs:all (eq (attr "s3") (int 0))
    ~path:Table.Scan ~expect:5;
  case "range" ~attrs:all (lt (attr "s1") (int 3)) ~path:Table.Scan ~expect:3;
  case "negation gives up" ~attrs:all (Not (ne (attr "s1") (int 3)))
    ~path:Table.Scan ~expect:1;
  match Table.select t ~attrs:[ "nope" ] True with
  | _ -> Alcotest.fail "expected Table_error"
  | exception Table.Table_error _ -> ()

let test_select_beyond_float_precision () =
  (* Int 2^53 + 1 compares equal to Float 2^53 (the Int rounds to it)
     yet hashes apart from it, and so does Int 2^53 itself: a probe for
     Float 2^53 would find at most one of the two rows the scan finds *)
  let t = Table.create ~name:"S" schema_s in
  let big = 1 lsl 53 in
  Table.insert t (s_tuple big 0 0);
  Table.insert t (s_tuple (big + 1) 1 0);
  let all = Schema.attrs schema_s in
  List.iter
    (fun v ->
      let cond = Predicate.(eq (attr "s1") (Const v)) in
      check_bag
        (Value.to_string v ^ ": = scan")
        (scan_oracle t ~attrs:all cond)
        (fst (Table.select t ~attrs:all cond)))
    [ Value.Float (float_of_int big); Value.Int big; Value.Int (big + 1); Value.Float nan ];
  Alcotest.(check int)
    "Float 2^53 meets both rows" 2
    (Bag.cardinal
       (fst
          (Table.select t ~attrs:all
             Predicate.(eq (attr "s1") (Const (Value.Float (float_of_int big)))))))

let test_select_charges () =
  let t = key_table () in
  let all = Schema.attrs schema_s in
  let open Predicate in
  let (_, path), ops =
    charged (fun () -> Table.select t ~attrs:all (eq (attr "s1") (int 3)))
  in
  Alcotest.(check access) "point: probe" Table.Probe path;
  Alcotest.(check int) "point: one probe" 1 ops;
  let _, ops =
    charged (fun () ->
        Table.select t ~attrs:all
          (disj
             [ eq (attr "s1") (int 3); eq (attr "s1") (flt 3.0); eq (attr "s1") (int 7) ]))
  in
  Alcotest.(check int) "two distinct values: two probes" 2 ops;
  let _, ops =
    charged (fun () -> Table.select t ~attrs:all (lt (attr "s1") (int 3)))
  in
  Alcotest.(check int) "range: support" (Table.support_cardinal t) ops;
  (* eleven pinned values against ten stored tuples: the scan is cheaper *)
  let many = disj (List.init 11 (fun i -> eq (attr "s1") (int i))) in
  let (_, path), ops = charged (fun () -> Table.select t ~attrs:all many) in
  Alcotest.(check access) "too many probes: scan" Table.Scan path;
  Alcotest.(check int) "too many probes: support" (Table.support_cardinal t) ops

(* Random tables — keyed with a multi-attribute index, and unkeyed bags
   with a single-attribute index and a multi-attribute join index —
   under inserts with multiplicities and deletions down to zero, read
   through random conditions: the access path always agrees with the
   scan. Constants mix Int, integral and fractional Float, Null and
   strings, over a domain wider than the stored one (absent keys). *)
let schema_bag =
  Schema.make [ ("s1", Value.TInt); ("s2", Value.TInt); ("s3", Value.TInt) ]

let const_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun i -> Value.Int i) (int_range 0 8);
      map (fun i -> Value.Float (float_of_int i)) (int_range 0 8);
      return (Value.Float 2.5);
      return Value.Null;
      return (Value.Str "x");
    ]

let cond_gen =
  let open QCheck2.Gen in
  let attr_gen = map Predicate.attr (oneofl [ "s1"; "s2"; "s3" ]) in
  let const = map (fun v -> Predicate.Const v) const_gen in
  let atom =
    oneof
      [
        map2 Predicate.eq attr_gen const;
        map2 Predicate.eq const attr_gen;
        map2 Predicate.eq attr_gen attr_gen;
        map2 Predicate.lt attr_gen const;
        map2 Predicate.ne attr_gen const;
        oneofl [ Predicate.True; Predicate.False ];
      ]
  in
  int_range 0 3
  >>= fix (fun self n ->
          if n = 0 then atom
          else
            oneof
              [
                atom;
                map2 (fun a b -> Predicate.And (a, b)) (self (n - 1)) (self (n - 1));
                map2 (fun a b -> Predicate.Or (a, b)) (self (n - 1)) (self (n - 1));
                map (fun a -> Predicate.Not a) (self (n - 1));
              ])

type op = Ins of Tuple.t * int | Del of Tuple.t * int

let ops_gen =
  let open QCheck2.Gen in
  let op =
    map3
      (fun ins t m -> if ins then Ins (t, m) else Del (t, m))
      (frequency [ (3, return true); (1, return false) ])
      (tuple_gen schema_s) (int_range 1 3)
  in
  list_size (int_range 0 30) op

let attrs_gen =
  let open QCheck2.Gen in
  map
    (fun (a, b, c) ->
      match List.filter_map Fun.id [ a; b; c ] with [] -> [ "s1" ] | l -> l)
    (triple (opt (return "s1")) (opt (return "s2")) (opt (return "s3")))

let test_select_matches_scan =
  qtest ~count:500 "select = project . select . contents"
    QCheck2.Gen.(
      quad bool ops_gen (list_size (int_range 1 6) cond_gen) attrs_gen)
    (fun (keyed, ops, conds, attrs) ->
      let t =
        if keyed then Table.create ~indexes:[ [ "s2"; "s3" ] ] ~name:"K" schema_s
        else
          Table.create ~indexes:[ [ "s1" ]; [ "s2"; "s3" ] ] ~name:"B" schema_bag
      in
      (* deletions remove one more copy than drawn: clamped at zero *)
      List.iter
        (function
          | Ins (tu, m) -> Table.insert ~mult:m t tu
          | Del (tu, m) -> Table.delete ~mult:(m + 1) t tu)
        ops;
      List.for_all
        (fun cond ->
          Bag.equal (fst (Table.select t ~attrs cond)) (scan_oracle t ~attrs cond))
        conds)

let test_store_catalog () =
  let store = Store.create () in
  let _ = Store.create_table store ~name:"S" schema_s in
  Alcotest.(check bool) "mem" true (Store.mem store "S");
  Alcotest.(check (list string)) "names" [ "S" ] (Store.table_names store);
  (try
     ignore (Store.create_table store ~name:"S" schema_s);
     Alcotest.fail "expected Store_error"
   with Store.Store_error _ -> ());
  try
    ignore (Store.table store "NOPE");
    Alcotest.fail "expected Store_error"
  with Store.Store_error _ -> ()

let test_store_delta_repositories () =
  let store = Store.create () in
  let _ = Store.create_table store ~name:"S" schema_s in
  Alcotest.(check bool)
    "initially empty" true
    (Rel_delta.is_empty (Store.delta store "S"));
  Store.add_delta store "S"
    (Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 1 2 3));
  Store.add_delta store "S"
    (Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 4 5 6));
  Alcotest.(check int) "smashed" 2 (Rel_delta.atom_count (Store.delta store "S"));
  let taken = Store.take_delta store "S" in
  Alcotest.(check int) "taken" 2 (Rel_delta.atom_count taken);
  Alcotest.(check bool)
    "cleared" true
    (Rel_delta.is_empty (Store.delta store "S"))

let test_store_env_and_bytes () =
  let store = Store.create () in
  let tbl = Store.create_table store ~name:"S" schema_s in
  Table.insert tbl (s_tuple 1 2 3);
  (match Store.env store "S" with
  | Some b -> Alcotest.(check int) "env view" 1 (Bag.cardinal b)
  | None -> Alcotest.fail "expected table");
  Alcotest.(check (option reject)) "absent" None
    (Option.map (fun (_ : Bag.t) -> ()) (Store.env store "NOPE"));
  Alcotest.(check bool) "bytes counted" true (Store.total_bytes store > 0)

let () =
  Alcotest.run "storage"
    [
      ( "table",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "key index" `Quick test_table_key_index;
          Alcotest.test_case "secondary index" `Quick test_table_secondary_index;
          Alcotest.test_case "scan fallback" `Quick test_table_scan_lookup;
          Alcotest.test_case "index through deletes" `Quick test_table_index_maintained_through_deletes;
          Alcotest.test_case "apply delta / load" `Quick test_table_apply_delta_and_load;
          Alcotest.test_case "rejects bad tuples" `Quick test_table_rejects_bad_tuple;
        ] );
      ( "access path",
        [
          Alcotest.test_case "edge cases" `Quick test_select_edge_cases;
          Alcotest.test_case "tuple-op charges" `Quick test_select_charges;
          Alcotest.test_case "beyond float precision" `Quick
            test_select_beyond_float_precision;
          test_select_matches_scan;
        ] );
      ( "store",
        [
          Alcotest.test_case "catalog" `Quick test_store_catalog;
          Alcotest.test_case "delta repositories" `Quick test_store_delta_repositories;
          Alcotest.test_case "env and bytes" `Quick test_store_env_and_bytes;
        ] );
    ]
