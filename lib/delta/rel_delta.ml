open Relalg

(* The signed map is ephemeral (see {!Relalg.Counts}): updates change
   it in place and consume the handle, whose recorded stamp then no
   longer matches the map's. All stored multiplicities are nonzero. *)
type t = { schema : Schema.t; muls : Counts.t; stamp : int }

exception Delta_error of string

let err fmt = Format.kasprintf (fun s -> raise (Delta_error s)) fmt

(* the map behind a live handle *)
let muls d =
  Counts.check d.muls d.stamp;
  d.muls

let of_counts schema muls = { schema; muls; stamp = Counts.stamp muls }
let empty schema = of_counts schema (Counts.create ())
let schema d = d.schema
let copy d = of_counts d.schema (Counts.copy (muls d))
let is_empty d = Counts.size (muls d) = 0

let add_signed d tuple mult =
  if mult = 0 then d
  else
    let muls = muls d in
    Counts.add muls tuple mult;
    of_counts d.schema muls

let insert ?(mult = 1) d tuple =
  if mult <= 0 then err "insert: multiplicity %d must be positive" mult;
  add_signed d tuple mult

let delete ?(mult = 1) d tuple =
  if mult <= 0 then err "delete: multiplicity %d must be positive" mult;
  add_signed d tuple (-mult)

let of_bags ~ins ~del =
  if not (Schema.union_compatible (Bag.schema ins) (Bag.schema del)) then
    err "of_bags: incompatible schemas";
  let d = empty (Bag.schema ins) in
  let d = Bag.fold (fun t m acc -> add_signed acc t m) ins d in
  Bag.fold (fun t m acc -> add_signed acc t (-m)) del d

let of_diff ~old_bag ~new_bag =
  of_bags ~ins:(Bag.monus new_bag old_bag) ~del:(Bag.monus old_bag new_bag)

(* the atoms of one sign, as a bag *)
let side sign d =
  let bu = Bag.builder d.schema in
  Counts.iter
    (fun t m -> if m * sign > 0 then Bag.badd ~check:true bu t (abs m))
    (muls d);
  Bag.seal bu

let insertions d = side 1 d
let deletions d = side (-1) d
let signed_mult d tuple = Counts.get (muls d) tuple
let atom_count d = Counts.fold (fun _ m acc -> acc + abs m) (muls d) 0
let support_cardinal d = Counts.size (muls d)

let apply ?(strict = false) bag d =
  Counts.fold
    (fun tuple m bag ->
      if m > 0 then begin
        if strict && Schema.key (Bag.schema bag) <> [] && Bag.mem bag tuple
        then err "apply: redundant insertion of %s" (Tuple.to_string tuple);
        Bag.add ~mult:m bag tuple
      end
      else begin
        if strict && Bag.mult bag tuple < -m then
          err "apply: redundant deletion of %s (mult %d, deleting %d)"
            (Tuple.to_string tuple) (Bag.mult bag tuple) (-m);
        Bag.remove ~mult:(-m) bag tuple
      end)
    (muls d) bag

let smash d1 d2 =
  let out = muls d1 in
  Counts.iter (fun t m -> Counts.add out t m) (muls d2);
  of_counts d1.schema out

(* a fresh map with each atom rewritten by [f] ([None] drops it);
   counts of coinciding images accumulate and zero sums drop out *)
let map_atoms schema f d =
  let src = muls d in
  let out = Counts.create ~size:(max 16 (Counts.size src)) () in
  Counts.iter
    (fun t m -> match f t with Some t' -> Counts.add out t' m | None -> ())
    src;
  of_counts schema out

let inverse d =
  let src = muls d in
  let out = Counts.create ~size:(max 16 (Counts.size src)) () in
  Counts.iter (fun t m -> Counts.add out t (-m)) src;
  of_counts d.schema out

let filter test d =
  map_atoms d.schema (fun t -> if test t then Some t else None) d

let select p d = filter (Predicate.eval p) d

let transform = map_atoms

let project names d =
  let proj = Tuple.projector names in
  map_atoms (Schema.project d.schema names) (fun t -> Some (proj t)) d

let rename mapping d =
  let schema =
    Expr.schema_of
      (fun _ -> d.schema)
      (Expr.Rename (mapping, Expr.Base "_"))
  in
  (* array fast path: the renamer precomputes the slot permutation per
     descriptor, no assoc-list round trip per tuple *)
  let rename_tuple = Tuple.renamer mapping in
  map_atoms schema (fun t -> Some (rename_tuple t)) d

let split_join join_fn d =
  let ins = join_fn (insertions d) in
  let del = join_fn (deletions d) in
  of_bags ~ins ~del

let join_bag ?on ?test d bag =
  split_join (fun side -> Bag.join ?on ?test side bag) d

let bag_join ?on ?test bag d =
  split_join (fun side -> Bag.join ?on ?test bag side) d

(* Signed join of two deltas: multiplicities multiply, so the four
   insertion/deletion quadrants carry sign (+ - - +). Both operands
   are deltas, so the quadrant joins are delta-sized. *)
let join ?on ?test d1 d2 =
  let schema = Schema.join d1.schema d2.schema in
  let ins1 = insertions d1 and del1 = deletions d1 in
  let ins2 = insertions d2 and del2 = deletions d2 in
  let add sign j acc =
    Bag.fold (fun t m acc -> add_signed acc t (sign * m)) j acc
  in
  empty schema
  |> add 1 (Bag.join ?on ?test ins1 ins2)
  |> add (-1) (Bag.join ?on ?test ins1 del2)
  |> add (-1) (Bag.join ?on ?test del1 ins2)
  |> add 1 (Bag.join ?on ?test del1 del2)

let fold f d init = Counts.fold f (muls d) init

let equal a b =
  Schema.union_compatible a.schema b.schema && Counts.equal (muls a) (muls b)

let pp fmt d =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (t, m) ->
         Format.fprintf fmt "%s%d*%a" (if m > 0 then "+" else "-") (abs m)
           Tuple.pp t))
    (Counts.bindings (muls d))

let to_string d = Format.asprintf "%a" pp d
