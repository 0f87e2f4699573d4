open Relalg
open Delta

exception Table_error of string

let err fmt = Format.kasprintf (fun s -> raise (Table_error s)) fmt

(* Key hash tables use Value's own equality/hash so that Int 1 and
   Float 1. land in the same bucket, as they compare equal. *)
module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash key = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 key
end)

module VKey_table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* An index cell holds the tuples sharing one key value. Unique and
   near-unique keys (the common case) stay in the compact [One]
   representation — three words instead of a hash table per key — and
   promote to a mutable tuple -> multiplicity table only when a second
   distinct tuple arrives. Single-attribute indexes (keys, join
   attributes) additionally skip the key-list allocation via a
   Value-keyed table. *)
type cell = One of one | Many of int Tuple.Tbl.t
and one = { mutable ot : Tuple.t; mutable om : int }

type entries =
  | Single of { key1 : Tuple.t -> Value.t; stbl : cell VKey_table.t }
  | Multi of { key : Tuple.t -> Value.t list; mtbl : cell Key_table.t }

type index = { on : string list; entries : entries }

type t = {
  name : string;
  schema : Schema.t;
  mutable bag : Bag.t;
  indexes : index list;
}

let make_index on =
  match on with
  | [ a ] ->
    { on; entries = Single { key1 = Tuple.keyer1 a; stbl = VKey_table.create 64 } }
  | _ -> { on; entries = Multi { key = Tuple.keyer on; mtbl = Key_table.create 64 } }

let create ?(indexes = []) ~name schema =
  let key = Schema.key schema in
  let index_specs =
    let specs = if key <> [] then key :: indexes else indexes in
    List.sort_uniq compare specs
  in
  List.iter
    (fun spec ->
      List.iter
        (fun a ->
          if not (Schema.mem schema a) then
            err "index on unknown attribute %S of table %s" a name)
        spec)
    index_specs;
  { name; schema; bag = Bag.empty schema; indexes = List.map make_index index_specs }

let name t = t.name
let schema t = t.schema

let tbl_add tb tuple mult =
  let old = match Tuple.Tbl.find tb tuple with m -> m | exception Not_found -> 0 in
  Tuple.Tbl.replace tb tuple (old + mult)

let tbl_remove tb tuple mult =
  match Tuple.Tbl.find tb tuple with
  | exception Not_found -> ()
  | m ->
    if m > mult then Tuple.Tbl.replace tb tuple (m - mult)
    else Tuple.Tbl.remove tb tuple

let promote o tuple mult =
  let tb = Tuple.Tbl.create 8 in
  Tuple.Tbl.replace tb o.ot o.om;
  Tuple.Tbl.replace tb tuple mult;
  Many tb

let cell_iter f = function
  | One o -> f o.ot o.om
  | Many tb -> Tuple.Tbl.iter f tb

(* [One] counts update in place; new keys go through [add] (the miss
   just told us the key is absent, so no bucket walk to replace) *)
let index_add ix tuple mult =
  match ix.entries with
  | Single { key1; stbl } -> (
    let k = key1 tuple in
    match VKey_table.find stbl k with
    | exception Not_found ->
      VKey_table.add stbl k (One { ot = tuple; om = mult })
    | One o ->
      if Tuple.equal o.ot tuple then o.om <- o.om + mult
      else VKey_table.replace stbl k (promote o tuple mult)
    | Many tb -> tbl_add tb tuple mult)
  | Multi { key; mtbl } -> (
    let k = key tuple in
    match Key_table.find mtbl k with
    | exception Not_found -> Key_table.add mtbl k (One { ot = tuple; om = mult })
    | One o ->
      if Tuple.equal o.ot tuple then o.om <- o.om + mult
      else Key_table.replace mtbl k (promote o tuple mult)
    | Many tb -> tbl_add tb tuple mult)

let index_remove ix tuple mult =
  match ix.entries with
  | Single { key1; stbl } -> (
    let k = key1 tuple in
    match VKey_table.find stbl k with
    | exception Not_found -> ()
    | One o ->
      if Tuple.equal o.ot tuple then
        if o.om > mult then o.om <- o.om - mult else VKey_table.remove stbl k
    | Many tb ->
      tbl_remove tb tuple mult;
      if Tuple.Tbl.length tb = 0 then VKey_table.remove stbl k)
  | Multi { key; mtbl } -> (
    let k = key tuple in
    match Key_table.find mtbl k with
    | exception Not_found -> ()
    | One o ->
      if Tuple.equal o.ot tuple then
        if o.om > mult then o.om <- o.om - mult else Key_table.remove mtbl k
    | Many tb ->
      tbl_remove tb tuple mult;
      if Tuple.Tbl.length tb = 0 then Key_table.remove mtbl k)

let insert ?(mult = 1) t tuple =
  t.bag <- Bag.add ~mult t.bag tuple;
  List.iter (fun ix -> index_add ix tuple mult) t.indexes

let delete ?(mult = 1) t tuple =
  let present = Bag.mult t.bag tuple in
  if present > 0 then begin
    let removed = min mult present in
    t.bag <- Bag.remove ~mult:removed t.bag tuple;
    List.iter (fun ix -> index_remove ix tuple removed) t.indexes
  end

let clear t =
  t.bag <- Bag.empty t.schema;
  List.iter
    (fun ix ->
      match ix.entries with
      | Single { stbl; _ } -> VKey_table.reset stbl
      | Multi { mtbl; _ } -> Key_table.reset mtbl)
    t.indexes

let load t bag =
  clear t;
  Bag.iter (fun tuple mult -> insert ~mult t tuple) bag

let contents t = t.bag

let apply_delta t delta =
  Rel_delta.fold
    (fun tuple m () ->
      if m > 0 then insert ~mult:m t tuple else delete ~mult:(-m) t tuple)
    delta ()

let cardinal t = Bag.cardinal t.bag
let support_cardinal t = Bag.support_cardinal t.bag
let mem t tuple = Bag.mem t.bag tuple
let mult t tuple = Bag.mult t.bag tuple

let has_index_on t attrs = List.exists (fun ix -> ix.on = attrs) t.indexes

let find_index t attrs = List.find_opt (fun ix -> ix.on = attrs) t.indexes

let cell_of_index ix values =
  match ix.entries, values with
  | Single { stbl; _ }, [ v ] -> VKey_table.find_opt stbl v
  | Single _, _ ->
    err "index probe: single-attribute index given %d values"
      (List.length values)
  | Multi { mtbl; _ }, _ -> Key_table.find_opt mtbl values

let probe t attrs values f =
  match find_index t attrs with
  | None ->
    err "probe: no index on (%s) of table %s" (String.concat ", " attrs) t.name
  | Some ix -> (
    Eval.charge_tuple_ops 1;
    match cell_of_index ix values with
    | None -> ()
    | Some cell -> cell_iter f cell)

(* The value-keyed table of the single-attribute index on [attr]
   ([make_index] builds [Single] exactly for one-attribute specs). *)
let single_index t attr =
  List.find_map
    (fun ix ->
      match ix.entries with
      | Single { stbl; _ } when ix.on = [ attr ] -> Some stbl
      | Single _ | Multi _ -> None)
    t.indexes

let probe1 t attr value f =
  match single_index t attr with
  | None -> err "probe1: no index on %s of table %s" attr t.name
  | Some stbl -> (
    Eval.charge_tuple_ops 1;
    match VKey_table.find_opt stbl value with
    | None -> ()
    | Some cell -> cell_iter f cell)

type access = Probe | Scan

let access_to_string = function Probe -> "probe" | Scan -> "scan"

(* The values [cond] pins on each attribute of [on], in order; [None]
   as soon as one attribute is unbounded or pinned to a value a probe
   cannot find exactly ({!Value.hash_exact}). *)
let pinned cond on =
  List.fold_right
    (fun a acc ->
      match (acc, Predicate.eq_values ~attr:a cond) with
      | Some vss, Some vs when List.for_all Value.hash_exact vs -> Some (vs :: vss)
      | _ -> None)
    on (Some [])

(* Access-path choice: among the indexes whose every attribute [cond]
   pins, the schema key first, then the one with the most attributes.
   [None] (scan) when no index qualifies, or when the probes — one per
   pinned value tuple — would outnumber the stored tuples. *)
let choose_probe t cond =
  let key = Schema.key t.schema in
  let rank ix = (ix.on = key, List.length ix.on) in
  let best =
    List.fold_left
      (fun best ix ->
        match best with
        | Some (bx, _) when compare (rank bx) (rank ix) >= 0 -> best
        | _ when ix.on = [] -> best
        | _ -> (
          match pinned cond ix.on with
          | Some vss -> Some (ix, vss)
          | None -> best))
      None t.indexes
  in
  match best with
  | None -> None
  | Some (_, vss) as probe ->
    let limit = Bag.support_cardinal t.bag in
    let probes =
      List.fold_left
        (fun n vs -> if n > limit then n else n * List.length vs)
        1 vss
    in
    if probes <= limit then probe else None

(* every combination of one value per attribute *)
let rec value_tuples = function
  | [] -> [ [] ]
  | vs :: rest ->
    let tails = value_tuples rest in
    List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) vs

let select t ~attrs cond =
  List.iter
    (fun a ->
      if not (Schema.mem t.schema a) then
        err "select: unknown attribute %S of table %s" a t.name)
    (attrs @ Predicate.attrs cond);
  let proj = Tuple.projector attrs in
  let bu = Bag.builder (Schema.project t.schema attrs) in
  match choose_probe t cond with
  | None ->
    (* one pass: filter through the slot-compiled condition and
       project into the result, no intermediate bag *)
    Eval.charge_tuple_ops (Bag.support_cardinal t.bag);
    let keep = Predicate.compile cond in
    Bag.iter
      (fun tuple m -> if keep tuple then Bag.badd ~check:false bu (proj tuple) m)
      t.bag;
    (Bag.seal bu, Scan)
  | Some (ix, vss) ->
    (* the probed cells are a superset of the answer (every tuple
       satisfying [cond] carries a pinned value tuple); the full
       condition, applied as a residual, cuts them down to it *)
    let emit tuple m =
      if Predicate.eval cond tuple then Bag.badd ~check:false bu (proj tuple) m
    in
    List.iter
      (fun values ->
        Eval.charge_tuple_ops 1;
        Option.iter (cell_iter emit) (cell_of_index ix values))
      (value_tuples vss);
    (Bag.seal bu, Probe)

(* [delta_join d t] = the signed join [d ⋈ contents t] computed by
   probing [t]'s persistent join-key index: one probe per delta atom
   instead of rebuilding a key table over the whole stored bag. [None]
   when no index matches the join keys — the caller falls back to the
   generic hash join. Sound during IUP propagation because table
   mutations are deferred until after the kernel pass, so probes see
   the pre-update state. *)
let delta_join ?(on = Predicate.True) ?filter d t =
  let dschema = Rel_delta.schema d in
  let left_keys, right_keys = Bag.join_keys dschema t.schema on in
  let probe_atom =
    match left_keys, right_keys with
    | _, [] -> None
    | [ l ], [ r ] ->
      Option.map
        (fun _ ->
          let key1 = Tuple.keyer1 l in
          fun ta f -> probe1 t r (key1 ta) f)
        (single_index t r)
    | _ ->
      Option.map
        (fun _ ->
          let keyer = Tuple.keyer left_keys in
          fun ta f -> probe t right_keys (keyer ta) f)
        (find_index t right_keys)
  in
  match probe_atom with
  | None -> None
  | Some probe_atom ->
    let out = ref (Rel_delta.empty (Schema.join dschema t.schema)) in
    let keep = match filter with Some f -> f | None -> fun _ -> true in
    let combine ta ma tb mb =
      if not (keep tb) then ()
      else
      match Tuple.concat ta tb with
      | None -> ()
      | Some merged ->
        if Predicate.eval on merged then begin
          let m = ma * mb in
          out :=
            (if m > 0 then Rel_delta.insert ~mult:m !out merged
             else Rel_delta.delete ~mult:(-m) !out merged)
        end
    in
    Rel_delta.fold
      (fun ta ma () -> probe_atom ta (fun tb mb -> combine ta ma tb mb))
      d ();
    Some !out

type index_stats = { ix_on : string list; ix_distinct : int; ix_max_chain : int }
type stats = { st_rows : int; st_support : int; st_indexes : index_stats list }

let index_stats ix =
  let chain = function One _ -> 1 | Many tb -> Tuple.Tbl.length tb in
  let distinct, max_chain =
    match ix.entries with
    | Single { stbl; _ } ->
      ( VKey_table.length stbl,
        VKey_table.fold (fun _ c m -> max m (chain c)) stbl 0 )
    | Multi { mtbl; _ } ->
      ( Key_table.length mtbl,
        Key_table.fold (fun _ c m -> max m (chain c)) mtbl 0 )
  in
  { ix_on = ix.on; ix_distinct = distinct; ix_max_chain = max_chain }

let stats t =
  {
    st_rows = Bag.cardinal t.bag;
    st_support = Bag.support_cardinal t.bag;
    st_indexes = List.map index_stats t.indexes;
  }

let pp_stats fmt s =
  Format.fprintf fmt "rows=%d support=%d" s.st_rows s.st_support;
  List.iter
    (fun ix ->
      Format.fprintf fmt " idx(%s){distinct=%d max_chain=%d}"
        (String.concat "," ix.ix_on) ix.ix_distinct ix.ix_max_chain)
    s.st_indexes

let bytes_estimate t =
  Bag.cardinal t.bag * Schema.arity t.schema * 8

let pp fmt t = Format.fprintf fmt "table %s = %a" t.name Bag.pp t.bag
