(* Mutable tuple -> count hash map, the physical backing of {!Bag}
   (positive multiplicities) and of delta repositories (signed nonzero
   counts).

   Layout: dense parallel arenas of tuples and counts plus a tuple ->
   slot hash index (the compact-dictionary layout). Removal swaps the
   last entry into the freed slot, so the arena stays dense with no
   tombstones and point operations are O(1). Bulk-built maps keep
   insertion order, making iteration a sequential scan over tuples in
   allocation order — where iterating a plain hash table visits tuples
   in hash order and pays a cache miss per tuple at scale.

   The tuple -> slot index is a flat open-addressing int array (linear
   probing, backward-shift deletion): [idx.(p)] holds [slot + 1], 0
   marks an empty position. A probe costs one flat array read plus the
   tuple it resolves to — no bucket chains and no allocation. *)

exception Consumed

type t = {
  mutable keys : Tuple.t array;
  mutable counts : int array;
  mutable used : int; (* keys/counts.(0 .. used-1) are populated *)
  mutable idx : int array; (* capacity a power of two, <= 3/4 full *)
  mutable mask : int; (* Array.length idx - 1 *)
  mutable stamp : int; (* bumped by every update *)
}

let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

let create ?(size = 8) () =
  let cap = max 8 size in
  let icap = pow2_above (cap + (cap / 2)) 16 in
  {
    keys = Array.make cap Tuple.empty;
    counts = Array.make cap 0;
    used = 0;
    idx = Array.make icap 0;
    mask = icap - 1;
    stamp = 0;
  }

(* the index is position-identical, so it is copied wholesale *)
let copy t =
  {
    keys = Array.copy t.keys;
    counts = Array.copy t.counts;
    used = t.used;
    idx = Array.copy t.idx;
    mask = t.mask;
    stamp = 0;
  }

let size t = t.used
let stamp t = t.stamp
let check t s = if t.stamp <> s then raise Consumed

(* arena slot of [tuple], or -1 *)
let find t tuple =
  let idx = t.idx and mask = t.mask and keys = t.keys in
  let rec go i =
    let v = Array.unsafe_get idx i in
    if v = 0 then -1
    else
      let k = Array.unsafe_get keys (v - 1) in
      if k == tuple || Tuple.equal k tuple then v - 1
      else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* caller guarantees [tuple] is absent *)
let idx_insert t tuple slot =
  let idx = t.idx and mask = t.mask in
  let rec go i =
    if Array.unsafe_get idx i = 0 then Array.unsafe_set idx i (slot + 1)
    else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* index position currently holding [slot]; the caller guarantees it
   exists and [tuple] is its tuple *)
let idx_pos t tuple slot =
  let idx = t.idx and mask = t.mask in
  let rec go i =
    if Array.unsafe_get idx i = slot + 1 then i else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* Empty position [p], shifting the tail of its probe cluster back so
   linear probing stays tombstone-free: an entry at [j] may fill the
   hole iff its home position lies cyclically at or before the hole. *)
let idx_delete t p =
  let idx = t.idx and mask = t.mask and keys = t.keys in
  let rec go hole j =
    let j = (j + 1) land mask in
    let v = Array.unsafe_get idx j in
    if v = 0 then Array.unsafe_set idx hole 0
    else
      let home = Tuple.hash keys.(v - 1) land mask in
      if (j - home) land mask >= (j - hole) land mask then begin
        Array.unsafe_set idx hole v;
        go j j
      end
      else go hole j
  in
  go p p

let get t tuple =
  let s = find t tuple in
  if s >= 0 then t.counts.(s) else 0

(* swap the last entry into the freed slot: dense, O(1) *)
let swap_remove t tuple i =
  let p = idx_pos t tuple i in
  let last = t.used - 1 in
  if i < last then begin
    let k = t.keys.(last) in
    t.keys.(i) <- k;
    t.counts.(i) <- t.counts.(last);
    t.idx.(idx_pos t k last) <- i + 1
  end;
  t.keys.(last) <- Tuple.empty;
  t.used <- last;
  idx_delete t p

let append t tuple count =
  let cap = Array.length t.keys in
  if t.used = cap then begin
    let keys = Array.make (2 * cap) Tuple.empty in
    let counts = Array.make (2 * cap) 0 in
    Array.blit t.keys 0 keys 0 t.used;
    Array.blit t.counts 0 counts 0 t.used;
    t.keys <- keys;
    t.counts <- counts
  end;
  if (t.used + 1) * 4 > (t.mask + 1) * 3 then begin
    let icap = 2 * (t.mask + 1) in
    t.idx <- Array.make icap 0;
    t.mask <- icap - 1;
    for s = 0 to t.used - 1 do
      idx_insert t t.keys.(s) s
    done
  end;
  t.keys.(t.used) <- tuple;
  t.counts.(t.used) <- count;
  idx_insert t tuple t.used;
  t.used <- t.used + 1

let add t tuple m =
  if m <> 0 then begin
    t.stamp <- t.stamp + 1;
    let s = find t tuple in
    if s < 0 then append t tuple m
    else
      let c = t.counts.(s) + m in
      if c <> 0 then t.counts.(s) <- c else swap_remove t tuple s
  end

let iter f t =
  let s = t.stamp in
  for i = 0 to t.used - 1 do
    f (Array.unsafe_get t.keys i) (Array.unsafe_get t.counts i);
    check t s
  done

let fold f t init =
  let acc = ref init in
  iter (fun tup m -> acc := f tup m !acc) t;
  !acc

let bindings t =
  let l = fold (fun tup m acc -> (tup, m) :: acc) t [] in
  List.sort (fun (t1, _) (t2, _) -> Tuple.compare t1 t2) l

let equal a b =
  a.used = b.used
  &&
  let rec go i = i >= a.used || (get b a.keys.(i) = a.counts.(i) && go (i + 1)) in
  go 0
