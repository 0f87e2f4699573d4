open Relalg
open Delta

let owner ~shards v =
  if shards <= 0 then invalid_arg "Partition.owner: shards must be positive";
  Value.hash v mod shards

let owner_of_tuple ~shards ~key tuple = owner ~shards (Tuple.get tuple key)

let split_bag ~shards ~key bag =
  let parts = Array.init shards (fun _ -> Bag.empty (Bag.schema bag)) in
  Bag.iter
    (fun tuple mult ->
      let i = owner_of_tuple ~shards ~key tuple in
      parts.(i) <- Bag.add parts.(i) ~mult tuple)
    bag;
  parts

let split_rel_delta ~shards ~key d =
  let schema = Rel_delta.schema d in
  let parts = Array.init shards (fun _ -> Rel_delta.empty schema) in
  Rel_delta.fold
    (fun tuple signed acc ->
      let i = owner_of_tuple ~shards ~key tuple in
      (if signed > 0 then
         parts.(i) <- Rel_delta.insert parts.(i) ~mult:signed tuple
       else if signed < 0 then
         parts.(i) <- Rel_delta.delete parts.(i) ~mult:(-signed) tuple);
      acc)
    d ();
  parts

let split_delta ~shards ~key md =
  let parts = Array.make shards Multi_delta.empty in
  List.iter
    (fun (rel, d) ->
      Array.iteri
        (fun i part ->
          if not (Rel_delta.is_empty part) then
            parts.(i) <- Multi_delta.add parts.(i) rel part)
        (split_rel_delta ~shards ~key d))
    (Multi_delta.bindings md);
  parts

type target = All_shards | Some_shards of int list

(* a pinned value that is not hash-exact may equal a key its hash does
   not route to, so it scatters *)
let targets ~shards ~key cond =
  match Predicate.eq_values ~attr:key cond with
  | Some vs when List.for_all Value.hash_exact vs ->
    Some_shards (List.sort_uniq Int.compare (List.map (owner ~shards) vs))
  | Some _ | None -> All_shards
