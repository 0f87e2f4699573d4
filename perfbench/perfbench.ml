(* End-to-end benchmark of the Squirrel mediator.

   One workload per invocation:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats {e trials} of the workload, all built from the same
   seed, until the measured windows add up to [--seconds] and there are
   at least three. Each trial runs in a forked child process, so that no
   trial inherits the garbage of those before it. A trial generates the
   base data, loads the sources and initializes the system (timed
   together as set-up), plans its update and query schedule (untimed),
   then opens the measured window:
   updates arrive open-loop at planned simulated times, one closed-loop
   client issues the planned queries with a fixed simulated think time,
   and the window closes when every committed source version is
   reflected in the exports. After the first trial's window the
   benchmark reads every export in full and checks it against the
   [Eval] oracle over the sources' current state, checks every point
   answer against its own commit log, and — where answers depend on
   ECA — runs the correctness checker; every later trial must reproduce
   the first one's answers exactly. A failed check exits with status 1
   and prints no numbers.

   Every workload runs with [op_time = 0]: mediator compute is timed on
   the host and counted in tuple ops, and the simulated clock carries
   only the modelled channel, source and flush delays. Simulated-time,
   tuple-op and poll figures are therefore exact functions of the
   seed; the run fails if two of its trials disagree on them.

   With [--trace 0] the last line of output is the end-to-end metrics
   as JSON; with [--trace 1] the trials alternate untraced and traced
   and the last line is the per-layer split measured on the traced
   ones. *)

open Relalg
open Delta
open Sim
open Sources
open Squirrel

let wall = Unix.gettimeofday

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* --- workloads ------------------------------------------------------------ *)

type workload = Update_stream | Hybrid_poll | Fed_scatter

let workloads =
  [
    ("update_stream", Update_stream);
    ("hybrid_poll", Hybrid_poll);
    ("fed_scatter", Fed_scatter);
  ]

(* Size of one trial. Keys and rows are the base data; [txs] update
   transactions arrive as a Poisson stream at [rate] per simulated
   second; the client issues [queries] queries, one every [think]
   simulated seconds (plus the query's own simulated latency). *)
type sizing = { keys : int; txs : int; rate : float; queries : int; think : float }

(* Each workload commits at least 1000 source versions, for a supported
   visible-lag p99. update_stream's reader is sparse:
   250 Enriched point lookups, the fewest that leave ten samples beyond
   the p95. A point lookup scans the whole export; Enriched's 10⁵ rows
   are far beyond any CPU cache, while a scan of Hot's ~10⁴ rows
   straddles the L2 cache, and its host time swung 2.5-fold between
   runs on a shared host. *)
let sizing = function
  | Update_stream ->
    { keys = 100_000; txs = 50_000; rate = 300.0; queries = 250; think = 0.667 }
  | Hybrid_poll -> { keys = 5_000; txs = 1_200; rate = 7.0; queries = 500; think = 0.35 }
  | Fed_scatter -> { keys = 100_000; txs = 4_000; rate = 53.0; queries = 1_000; think = 0.075 }

let groups = 16
let hot_keys = 64
let fig1_s_rows = 500
let shards = 4

(* Announcements are applied one flush tick at a time, at most
   [max_batch] (64) per tick: the Poisson streams above stay well under
   that capacity, so the queue drains instead of growing for the whole
   run. *)
let flush_interval = 0.1

(* The anti-entropy heartbeat polls every announcing source once per
   simulated second, as a deployment that must notice a lost final
   announcement does. *)
let heartbeat = 1.0

(* --- per-layer probes (traced trials only) -------------------------------- *)

type probes = {
  mutable commit_us : float list;
  mutable commit_words : float list;
  mutable enqueue_us : float list;
  mutable messages : int;
  mutable queue_max : int;
  mutable route_us : float list;
}

let fresh_probes () =
  {
    commit_us = [];
    commit_words = [];
    enqueue_us = [];
    messages = 0;
    queue_max = 0;
    route_us = [];
  }

(* Wrap the closures the mediator calls on a source: the commit path
   (timed and its minor words counted) and the handler the mediator
   connects, which receives every channel delivery and enqueues the
   announcements. [queue_len] reads the owning mediator's queue once it
   exists. *)
let wrap_adapter pr ~queue_len (a : Adapter.t) =
  {
    a with
    Adapter.a_commit =
      (fun md ->
        let w0 = Gc.minor_words () in
        let h0 = wall () in
        a.Adapter.a_commit md;
        let h1 = wall () in
        pr.commit_words <- (Gc.minor_words () -. w0) :: pr.commit_words;
        pr.commit_us <- ((h1 -. h0) *. 1e6) :: pr.commit_us);
    a_connect =
      (fun ~comm_delay ~q_proc_delay handler ->
        a.Adapter.a_connect ~comm_delay ~q_proc_delay (fun msg ->
            pr.messages <- pr.messages + 1;
            match msg with
            | Message.Update _ ->
              let h0 = wall () in
              handler msg;
              let h1 = wall () in
              pr.enqueue_us <- ((h1 -. h0) *. 1e6) :: pr.enqueue_us;
              pr.queue_max <- max pr.queue_max (queue_len ())
            | Message.Answer _ -> handler msg));
  }

(* --- the system under test ------------------------------------------------ *)

type query = {
  q_label : string;
      (** kind of request: point, group, hot, key_based, full, store *)
  q_node : string;
  q_attrs : string list option;
  q_cond : Predicate.t;
  q_key : int option;  (** point lookups: checked against the commit log *)
}

type tx = {
  x_at : float;  (** simulated offset of the commit from the window start *)
  x_key : int;
  x_md : Multi_delta.t;
}

type system = {
  engine : Engine.t;
  vdp : Vdp.Graph.t;
  meds : Mediator.t array;  (** one per shard; a single mediator is shard 0 *)
  srcs : Adapter.t list array;  (** each shard's sources *)
  fed : Fed.Coordinator.t option;
  owner : int -> int;  (** shard owning a key *)
  commit : Multi_delta.t -> unit;
  ask : query -> Qp.answer;
  base : (string * Bag.t) list;  (** generated base relations *)
}

type setup_times = { gen_s : float; load_s : float; init_s : float }

let source_named srcs name =
  List.find (fun a -> String.equal (Adapter.name a) name) srcs

(* Run the engine until [ready ()] holds, in flush-interval slices. *)
let run_until engine ~what ready =
  let rec go n =
    if not (ready ()) then begin
      if n > 1_000_000 then fail "%s never completed" what;
      Engine.run engine ~until:(Engine.now engine +. flush_interval);
      go (n + 1)
    end
  in
  go 0

(* Run [init] as a simulation process and drive the engine until it
   returns. *)
let initialize engine init =
  let ready = ref false in
  Engine.spawn engine (fun () ->
      init ();
      ready := true);
  run_until engine ~what:"initialization" (fun () -> !ready)

(* Sources as the mediator sees them: wrapped in traced trials.
   [queue_len] reads the owning mediator's queue once it exists. *)
let instrument ~traced pr ~queue_len srcs =
  if traced then List.map (wrap_adapter pr ~queue_len) srcs else srcs

(* One mediator over loaded sources: created, connected, initialized. *)
let start_mediator ~engine ~vdp ~annotation ~config ~med_ref ~base srcs =
  let med = Mediator.create ~engine ~vdp ~annotation ~config ~sources:srcs () in
  med_ref := Some med;
  Mediator.connect med ();
  initialize engine (fun () -> Mediator.initialize med);
  {
    engine;
    vdp;
    meds = [| med |];
    srcs = [| srcs |];
    fed = None;
    owner = (fun _ -> 0);
    commit = (Fed.Fed_workload.of_mediator ~engine ~config med).Fed.Fed_workload.s_commit;
    ask = (fun q -> Mediator.query med ~node:q.q_node ?attrs:q.q_attrs ~cond:q.q_cond ());
    base;
  }

let queue_of med_ref () = Option.fold ~none:0 ~some:Mediator.queue_length !med_ref

(* The Fed_scenario integration (Enriched = Items ⋈ Tags, Hot =
   σ amt≥90 Items) on one fully materialized mediator. *)
let setup_single ~seed ~keys ~config pr ~traced =
  let h0 = wall () in
  let items, tags = Fed.Fed_scenario.base_bags ~seed ~keys ~groups in
  let h1 = wall () in
  let engine = Engine.create () in
  let vdp = Fed.Fed_scenario.fed_vdp () in
  let med_ref = ref None in
  let srcs =
    instrument ~traced pr ~queue_len:(queue_of med_ref)
      (Fed.Fed_scenario.make_sources ~engine ())
  in
  Adapter.load (source_named srcs "dbItems") "Items" items;
  Adapter.load (source_named srcs "dbTags") "Tags" tags;
  let h2 = wall () in
  let sys =
    start_mediator ~engine ~vdp ~annotation:(Vdp.Annotation.fully_materialized vdp) ~config
      ~med_ref ~base:[ ("Items", items); ("Tags", tags) ] srcs
  in
  (sys, { gen_s = h1 -. h0; load_s = h2 -. h1; init_s = wall () -. h2 })

(* Figure 1 under Example 2.3's annotation: T hybrid (r1, s1
   materialized; r3, s2 virtual), R′ and S′ virtual. R's r2 ranges over
   S's keys so the join hits; r4 = 100 and s3 < 50 each keep half. *)
let r_specs =
  [
    { Workload.Datagen.c_attr = "r1"; c_min = 0; c_max = 0 };
    { c_attr = "r2"; c_min = 0; c_max = fig1_s_rows - 1 };
    { c_attr = "r3"; c_min = 0; c_max = 199 };
    { c_attr = "r4"; c_min = 100; c_max = 101 };
  ]

let s_specs =
  [
    { Workload.Datagen.c_attr = "s1"; c_min = 0; c_max = 0 };
    { c_attr = "s2"; c_min = 0; c_max = 99 };
    { c_attr = "s3"; c_min = 0; c_max = 99 };
  ]

let setup_fig1 ~seed ~keys ~config pr ~traced =
  let h0 = wall () in
  let vdp = Workload.Scenario.fig1_vdp () in
  let schema rel = (Vdp.Graph.node vdp rel).Vdp.Graph.schema in
  let rng = Workload.Datagen.state seed in
  let r = Workload.Datagen.bag rng (schema "R") r_specs ~size:keys in
  let s = Workload.Datagen.bag rng (schema "S") s_specs ~size:fig1_s_rows in
  let h1 = wall () in
  let engine = Engine.create () in
  let med_ref = ref None in
  let srcs =
    instrument ~traced pr ~queue_len:(queue_of med_ref)
      (List.map
         (fun (name, rel) ->
           Workload.Scenario.mk_source ~backend:`Relational ~engine ~name
             ~relations:[ (rel, schema rel) ]
             ~announce:Source_db.Immediate ())
         [ ("db1", "R"); ("db2", "S") ])
  in
  Adapter.load (source_named srcs "db1") "R" r;
  Adapter.load (source_named srcs "db2") "S" s;
  let h2 = wall () in
  let sys =
    start_mediator ~engine ~vdp ~annotation:(Workload.Scenario.ann_ex23 vdp) ~config ~med_ref
      ~base:[ ("R", r); ("S", s) ] srcs
  in
  (sys, { gen_s = h1 -. h0; load_s = h2 -. h1; init_s = wall () -. h2 })

(* The same integration hash-partitioned on k over [shards] mediators
   behind the federation coordinator, with its answer cache on. *)
let setup_fed ~seed ~keys ~config pr ~traced =
  let h0 = wall () in
  let items, tags = Fed.Fed_scenario.base_bags ~seed ~keys ~groups in
  let h1 = wall () in
  let engine = Engine.create () in
  let vdp = Fed.Fed_scenario.fed_vdp () in
  let fed_ref = ref None in
  let srcs = Array.make shards [] in
  let make_sources ~shard =
    let queue_len () =
      Option.fold ~none:0
        ~some:(fun f -> Mediator.queue_length (Fed.Coordinator.mediator f shard))
        !fed_ref
    in
    srcs.(shard) <- instrument ~traced pr ~queue_len (Fed.Fed_scenario.make_sources ~engine ());
    srcs.(shard)
  in
  let fed =
    Fed.Coordinator.create ~engine ~vdp ~key:Fed.Fed_scenario.partition_key ~shards
      ~make_sources ~config ~answer_cache:true ()
  in
  fed_ref := Some fed;
  Fed.Coordinator.load fed "Items" items;
  Fed.Coordinator.load fed "Tags" tags;
  let h2 = wall () in
  initialize engine (fun () -> Fed.Coordinator.initialize fed);
  let h3 = wall () in
  let commit md =
    if not traced then Fed.Coordinator.commit fed md
    else begin
      let h0 = wall () in
      Fed.Coordinator.commit fed md;
      pr.route_us <- ((wall () -. h0) *. 1e6) :: pr.route_us
    end
  in
  ( {
      engine;
      vdp;
      meds = Array.init shards (Fed.Coordinator.mediator fed);
      srcs;
      fed = Some fed;
      owner = (fun k -> Fed.Partition.owner ~shards (Value.Int k));
      commit;
      ask = (fun q -> Fed.Coordinator.query fed ~node:q.q_node ?attrs:q.q_attrs ~cond:q.q_cond ());
      base = [ ("Items", items); ("Tags", tags) ];
    },
    { gen_s = h1 -. h0; load_s = h2 -. h1; init_s = h3 -. h2 } )

let setup w ~seed ~traced ~capacity pr =
  let keys = (sizing w).keys in
  let config =
    Med.Config.make ~op_time:0.0 ~flush_interval ~version_check_interval:heartbeat
      ~trace_enabled:traced ~trace_capacity:capacity ()
  in
  match w with
  | Update_stream -> setup_single ~seed ~keys ~config pr ~traced
  | Hybrid_poll -> setup_fig1 ~seed ~keys ~config pr ~traced
  | Fed_scatter -> setup_fed ~seed ~keys ~config pr ~traced

(* --- planning (before the window opens) ----------------------------------- *)

let int_of v = match v with Value.Int i -> i | _ -> fail "non-integer key"

(* Rows of a keyed base relation by integer key. *)
let rows_by_key bag key =
  let tbl = Hashtbl.create (Bag.cardinal bag) in
  Bag.iter (fun t _ -> Hashtbl.replace tbl (int_of (Tuple.get t key)) t) bag;
  tbl

let replace schema old_t new_t =
  Rel_delta.insert (Rel_delta.delete (Rel_delta.empty schema) old_t) new_t

(* Simulated commit times, offsets from the window's start, in plan
   order. *)
let arrivals rng sz =
  let at = ref 0.0 in
  Array.init sz.txs (fun _ ->
      at := !at -. (Float.log (1.0 -. Random.State.float rng 1.0) /. sz.rate);
      !at)

(* Half of all writes and point lookups go to a small hot key set: a
   batch then holds the same key twice, so the smash cancels the
   intermediate row, and a point answer often reads a row written a
   few versions earlier, so checking it against the commit log tells a
   wrong reflect vector or a stale row from a right one. *)
let pick_key rng sz hot =
  if Random.State.bool rng then hot.(Random.State.int rng (Array.length hot))
  else Random.State.int rng sz.keys

(* Single-key replaces of Items (every fourth also retags). *)
let plan_replaces rng sz sys hot =
  let items = rows_by_key (List.assoc "Items" sys.base) "k" in
  let tags = rows_by_key (List.assoc "Tags" sys.base) "k" in
  let at = arrivals rng sz in
  Array.init sz.txs (fun i ->
      let k = pick_key rng sz hot in
      let old_item = Hashtbl.find items k in
      let grp = Random.State.int rng groups and amt = Random.State.int rng 100 in
      (* a replace by an equal row would be an empty delta *)
      let amt = if Value.Int amt = Tuple.get old_item "amt" then (amt + 1) mod 100 else amt in
      let item =
        Tuple.of_list [ ("k", Value.Int k); ("grp", Value.Int grp); ("amt", Value.Int amt) ]
      in
      let md =
        Multi_delta.singleton "Items" (replace Fed.Fed_scenario.schema_items old_item item)
      in
      Hashtbl.replace items k item;
      let md =
        if i mod 4 <> 0 then md
        else begin
          let old_tag = Hashtbl.find tags k in
          let tag = Random.State.int rng 1000 in
          let tag = if Value.Int tag = Tuple.get old_tag "tag" then (tag + 1) mod 1000 else tag in
          let tag = Tuple.of_list [ ("k", Value.Int k); ("tag", Value.Int tag) ] in
          let d = replace Fed.Fed_scenario.schema_tags old_tag tag in
          Hashtbl.replace tags k tag;
          Multi_delta.add md "Tags" d
        end
      in
      { x_at = at.(i); x_key = k; x_md = md })

(* Inserts of fresh R keys and deletes of live ones (two in three
   transactions touch R); the rest replace an S row's payload. *)
let plan_fig1 rng sz sys =
  let r_schema = Bag.schema (List.assoc "R" sys.base) in
  let s_schema = Bag.schema (List.assoc "S" sys.base) in
  let r_live = rows_by_key (List.assoc "R" sys.base) "r1" in
  let s_rows = rows_by_key (List.assoc "S" sys.base) "s1" in
  let live = Array.make (sz.keys + sz.txs) 0 in
  let initial = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) r_live []) in
  List.iteri (fun i k -> live.(i) <- k) initial;
  let n_live = ref (List.length initial) in
  let next_key = ref sz.keys in
  let at = arrivals rng sz in
  Array.init sz.txs (fun i ->
      match i mod 3 with
      | 0 ->
        let k = !next_key in
        incr next_key;
        let t =
          Workload.Datagen.keyed_tuple rng r_schema r_specs ~key_seed:k
        in
        Hashtbl.replace r_live k t;
        live.(!n_live) <- k;
        incr n_live;
        {
          x_at = at.(i);
          x_key = k;
          x_md = Multi_delta.singleton "R" (Rel_delta.insert (Rel_delta.empty r_schema) t);
        }
      | 1 ->
        let j = Random.State.int rng !n_live in
        let k = live.(j) in
        live.(j) <- live.(!n_live - 1);
        decr n_live;
        let t = Hashtbl.find r_live k in
        Hashtbl.remove r_live k;
        {
          x_at = at.(i);
          x_key = k;
          x_md = Multi_delta.singleton "R" (Rel_delta.delete (Rel_delta.empty r_schema) t);
        }
      | _ ->
        let k = Random.State.int rng fig1_s_rows in
        let old_t = Hashtbl.find s_rows k in
        let s2 = Random.State.int rng 100 and s3 = Random.State.int rng 100 in
        let s2 = if Value.Int s2 = Tuple.get old_t "s2" then (s2 + 1) mod 100 else s2 in
        let t =
          Tuple.of_list [ ("s1", Value.Int k); ("s2", Value.Int s2); ("s3", Value.Int s3) ]
        in
        Hashtbl.replace s_rows k t;
        { x_at = at.(i); x_key = k; x_md = Multi_delta.singleton "S" (replace s_schema old_t t) })

let point_query node k =
  {
    q_label = "point";
    q_node = node;
    q_attrs = None;
    q_cond = Predicate.(eq (attr "k") (int k));
    q_key = Some k;
  }

let group_query g =
  {
    q_label = "group";
    q_node = "Enriched";
    q_attrs = None;
    q_cond = Predicate.(eq (attr "grp") (int g));
    q_key = None;
  }

let hot_query =
  { q_label = "hot"; q_node = "Hot"; q_attrs = None; q_cond = Predicate.True; q_key = None }

(* [n] slots split between kinds by exact percentages, in a random
   order, each with its rank among the slots of its kind: the mix and
   the spread of each kind's parameter are then the same for every
   seed, and only the order and the draws within a kind vary. *)
let shuffled_mix rng n shares =
  let counts = List.map (fun (kind, pct) -> (kind, n * pct / 100)) shares in
  (* rounding leftovers go to the first kind *)
  let short = n - List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  let counts = List.mapi (fun i (kind, c) -> (kind, if i = 0 then c + short else c)) counts in
  let slots =
    Array.concat
      (List.map (fun (kind, count) -> Array.init count (fun rank -> (kind, rank, count))) counts)
  in
  for i = Array.length slots - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  slots

(* Point lookups, group scans and full Hot reads, in percent. *)
let plan_mix rng sz hot ~point ~group =
  Array.map
    (fun (kind, rank, _) ->
      match kind with
      | `Point -> point_query "Enriched" (pick_key rng sz hot)
      | `Group -> group_query (rank mod groups)
      | `Hot -> hot_query)
    (shuffled_mix rng sz.queries [ (`Point, point); (`Group, group); (`Hot, 100 - point - group) ])

(* Queries on T: key-based construction of the virtual r3 (Example
   2.3), full-width reads that poll both sources through the VAP, and
   projections the store alone answers. The range bounds step evenly
   through their domains. *)
let plan_fig1_queries rng sz =
  Array.map
    (fun (kind, rank, count) ->
      match kind with
      | `Key_based ->
        {
          q_label = "key_based";
          q_node = "T";
          q_attrs = Some [ "r1"; "r3" ];
          q_cond = Predicate.(lt (attr "r3") (int (rank * 200 / count)));
          q_key = None;
        }
      | `Full ->
        { q_label = "full"; q_node = "T"; q_attrs = None; q_cond = Predicate.True; q_key = None }
      | `Store ->
        {
          q_label = "store";
          q_node = "T";
          q_attrs = Some [ "r1"; "s1" ];
          q_cond = Predicate.(lt (attr "s1") (int (rank * fig1_s_rows / count)));
          q_key = None;
        })
    (shuffled_mix rng sz.queries [ (`Key_based, 40); (`Full, 30); (`Store, 30) ])

let plan w ~seed sys =
  let sz = sizing w in
  let rng = Workload.Datagen.state (seed lxor 0x5eed) in
  let hot = Array.init hot_keys (fun _ -> Random.State.int rng sz.keys) in
  match w with
  | Update_stream ->
    let txs = plan_replaces rng sz sys hot in
    (txs, Array.init sz.queries (fun _ -> point_query "Enriched" (pick_key rng sz hot)))
  | Hybrid_poll ->
    let txs = plan_fig1 rng sz sys in
    (txs, plan_fig1_queries rng sz)
  | Fed_scatter ->
    let txs = plan_replaces rng sz sys hot in
    (txs, plan_mix rng sz hot ~point:85 ~group:10)

(* --- the measured window --------------------------------------------------- *)

(* What the benchmark keeps of an answer. Only point answers keep
   their tuples: holding every scan's rows would swell the heap the
   benchmark measures. *)
type answered = {
  a_query : query;
  a_fresh : bool;
  a_reflect : (string * Med.reflect_entry) list;
  a_trace_id : int option;
  a_rows : int;
  a_digest : int;
  a_point : Bag.t option;
  a_host_us : float;
  a_sim_ms : float;
  a_cache_hit : bool;
  a_words : float;
}

let cv = Obs.Metrics.value

(* Every counter of the mediators, the coordinator and the sources,
   summed over shards by name; labelled counters appear as
   [family:label]. Taken on both sides of the window. *)
let counters sys =
  let tbl = Hashtbl.create 64 in
  let add name v =
    Hashtbl.replace tbl name (v + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  let registry r =
    let snap = Obs.Metrics.snapshot r in
    List.iter (fun (n, v) -> add n v) snap.Obs.Metrics.counters;
    List.iter
      (fun (family, l) -> List.iter (fun (label, v) -> add (family ^ ":" ^ label) v) l)
      snap.Obs.Metrics.families
  in
  Array.iter (fun m -> registry (Mediator.metrics m)) sys.meds;
  Option.iter (fun f -> registry (Fed.Coordinator.metrics f)) sys.fed;
  Array.iter (List.iter (fun a -> add "polls_served" (Adapter.polls_served a))) sys.srcs;
  tbl

let fed_counter sys name =
  match sys.fed with
  | Some f -> cv (Obs.Metrics.counter (Fed.Coordinator.metrics f) name)
  | None -> 0

(* Read inside the window around every query: direct counter reads,
   no snapshot. *)
let cache_hits sys =
  Array.fold_left (fun acc m -> acc + cv (Mediator.stats m).Med.cache_hits) 0 sys.meds
  + fed_counter sys "fed_cache_hits"

type window = {
  w_sim_start : float;  (** simulated time the first operation was due *)
  w_host_s : float;
  w_answers : answered array;
  w_versions : (int * string * int) list array;
      (** per transaction: (shard, source, version) its commit wrote *)
  w_commit_sim : float array;  (** simulated commit time per transaction *)
  w_before : (string, int) Hashtbl.t;
  w_after : (string, int) Hashtbl.t;
  w_minor_words : float;
  w_major : int;
}

(* Order-independent digest of an answer bag. *)
let digest bag = Bag.fold (fun t m acc -> acc + (m * Tuple.hash t)) bag (Bag.cardinal bag)

let caught_up sys =
  let ok = ref true in
  Array.iteri
    (fun i med ->
      List.iter
        (fun a ->
          if Mediator.reflected_version med (Adapter.name a) < Adapter.version a
          then ok := false)
        sys.srcs.(i))
    sys.meds;
  !ok && Array.for_all (fun m -> Mediator.queue_length m = 0) sys.meds

let run_window sys sz (txs : tx array) (queries : query array) =
  let engine = sys.engine in
  let t0 = Float.ceil (Engine.now engine) +. 0.5 in
  let versions = Array.make (Array.length txs) [] in
  let commit_sim = Array.make (Array.length txs) 0.0 in
  let answers = Array.make (Array.length queries) None in
  let txs_done = ref 0 and queries_done = ref 0 in
  Array.iteri
    (fun j tx ->
      Engine.schedule_at engine ~time:(t0 +. tx.x_at) (fun () ->
          sys.commit tx.x_md;
          let shard = sys.owner tx.x_key in
          versions.(j) <-
            List.map
              (fun rel ->
                let src = Vdp.Graph.source_of_leaf sys.vdp rel in
                (shard, src, Adapter.version (source_named sys.srcs.(shard) src)))
              (Multi_delta.relations tx.x_md);
          commit_sim.(j) <- Engine.now engine;
          incr txs_done))
    txs;
  (* host time the client spends keeping answers, taken out of the window *)
  let harness_s = ref 0.0 in
  Engine.schedule_at engine ~time:t0 (fun () ->
      Engine.spawn engine (fun () ->
          Array.iteri
            (fun i q ->
              Engine.sleep engine sz.think;
              let hits = cache_hits sys in
              let s0 = Engine.now engine in
              let w0 = Gc.minor_words () in
              let h0 = wall () in
              let a = sys.ask q in
              let h1 = wall () in
              let w1 = Gc.minor_words () in
              answers.(i) <-
                Some
                  {
                    a_query = q;
                    a_fresh = a.Qp.quality = Qp.Fresh;
                    a_reflect = a.Qp.reflect;
                    a_trace_id = a.Qp.trace_id;
                    a_rows = Bag.cardinal a.Qp.tuples;
                    a_digest = digest a.Qp.tuples;
                    a_point = Option.map (fun _ -> a.Qp.tuples) q.q_key;
                    a_host_us = (h1 -. h0) *. 1e6;
                    a_sim_ms = (Engine.now engine -. s0) *. 1e3;
                    a_cache_hit = cache_hits sys > hits;
                    a_words = w1 -. w0;
                  };
              harness_s := !harness_s +. (wall () -. h1);
              incr queries_done)
            queries));
  let before = counters sys in
  let gc0 = Gc.quick_stat () in
  let finished () =
    !txs_done = Array.length txs && !queries_done = Array.length queries && caught_up sys
  in
  let h0 = wall () in
  run_until engine ~what:"the measured window" finished;
  let h1 = wall () in
  let gc1 = Gc.quick_stat () in
  {
    w_sim_start = t0;
    w_host_s = h1 -. h0 -. !harness_s;
    w_answers = Array.map Option.get answers;
    w_versions = versions;
    w_commit_sim = commit_sim;
    w_before = before;
    w_after = counters sys;
    w_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    w_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* How much a counter advanced during the window. *)
let delta (win : window) name =
  let get tbl = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  get win.w_after - get win.w_before

(* Operations that did not complete as asked: degraded answers, SLO
   refusals, exhausted polls and deferred update transactions. *)
let failed_ops win =
  List.fold_left (fun acc n -> acc + delta win n) 0
    [ "degraded_answers"; "slo_refusals"; "poll_failures"; "update_deferrals";
      "fed_degraded_answers" ]

(* --- checks (after the window closes) -------------------------------------- *)

(* Commit time of every (shard, source, version) the driver wrote.
   The driver is the sources' only writer, so each source's versions
   must run 1, 2, 3, … in commit order. *)
let commit_log (win : window) =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun j vs ->
      List.iter
        (fun (shard, src, v) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (shard, src)) in
          (match prev with
          | (pv, _) :: _ when pv <> v - 1 ->
            fail "%s on shard %d went from version %d to %d" src shard pv v
          | [] when v <> 1 -> fail "%s on shard %d started at version %d" src shard v
          | _ -> ());
          Hashtbl.replace tbl (shard, src) ((v, win.w_commit_sim.(j)) :: prev))
        vs)
    win.w_versions;
  let arrays = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key l -> Hashtbl.replace arrays key (Array.of_list (List.rev_map snd l)))
    tbl;
  fun shard src v ->
    match Hashtbl.find_opt arrays (shard, src) with
    | Some a when v >= 1 && v <= Array.length a -> Some a.(v - 1)
    | _ -> None

let visible_lags sys win =
  let lookup = commit_log win in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun shard med ->
            match Stats.visible_lags ~commit_time:(lookup shard) (Mediator.events med) with
            | lags -> Array.of_list lags
            | exception Stats.Unlogged_version (src, v) ->
              fail "shard %d reflects %s version %d, which the driver never committed" shard
                src v)
          sys.meds))

(* The Fed_scenario row a key holds at the given source versions,
   rebuilt from the base data and the planned writes in commit order. *)
let point_checker sys (txs : tx array) (win : window) =
  let hist = Hashtbl.create 1024 in
  Array.iteri
    (fun j tx ->
      List.iter2
        (fun rel (_, _, v) ->
          let d = Option.get (Multi_delta.find tx.x_md rel) in
          let row =
            match Bag.support (Rel_delta.insertions d) with
            | [ t ] -> t
            | _ -> fail "planned replace without exactly one new row"
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt hist (rel, tx.x_key)) in
          Hashtbl.replace hist (rel, tx.x_key) ((v, row) :: prev))
        (Multi_delta.relations tx.x_md) win.w_versions.(j))
    txs;
  let items = rows_by_key (List.assoc "Items" sys.base) "k" in
  let tags = rows_by_key (List.assoc "Tags" sys.base) "k" in
  let row rel base k version =
    let h = Option.value ~default:[] (Hashtbl.find_opt hist (rel, k)) in
    Stats.row_at ~base:(Hashtbl.find base k) h ~version
  in
  fun (q : query) k a ->
    let version src =
      match List.assoc_opt src a.a_reflect with
      | Some (Med.Version v) -> v
      | Some Med.Current | None -> fail "point answer on %s lacks a %s version" q.q_node src
    in
    let item = row "Items" items k (version "dbItems") in
    let fields t = List.map (fun a -> (a, Tuple.get t a)) in
    let expected =
      match q.q_node with
      | "Enriched" ->
        let tag = row "Tags" tags k (version "dbTags") in
        Some (fields item [ "k"; "grp"; "amt" ] @ fields tag [ "tag" ])
      | "Hot" ->
        if int_of (Tuple.get item "amt") >= Fed.Fed_scenario.hot_threshold then
          Some (fields item [ "k"; "grp"; "amt" ])
        else None
      | n -> fail "no point check for %s" n
    in
    Stats.point_answer_ok ~expected (Option.get a.a_point)

let check_trial w sys txs (win : window) =
  if failed_ops win > 0 then
    fail "%d operations failed (degraded, refused, exhausted or deferred)" (failed_ops win);
  Array.iteri
    (fun i a ->
      if not a.a_fresh then fail "query %d (%s) was answered stale" i a.a_query.q_label)
    win.w_answers;
  (match w with
  | Hybrid_poll -> ()
  | Update_stream | Fed_scatter ->
    let ok = point_checker sys txs win in
    Array.iteri
      (fun i a ->
        match a.a_query.q_key with
        | Some k when not (ok a.a_query k a) ->
          fail "point answer %d (%s k=%d) disagrees with the commit log" i
            a.a_query.q_node k
        | _ -> ())
      win.w_answers);
  (* final full reads against the oracle over the sources' current
     state (shards' partitions unioned) *)
  let finals = ref [] in
  let exports = Vdp.Graph.exports sys.vdp in
  Engine.spawn sys.engine (fun () ->
      finals :=
        List.map
          (fun (n : Vdp.Graph.node) ->
            ( n.Vdp.Graph.name,
              sys.ask
                {
                  q_label = "final";
                  q_node = n.Vdp.Graph.name;
                  q_attrs = None;
                  q_cond = Predicate.True;
                  q_key = None;
                } ))
          exports);
  run_until sys.engine ~what:"the final reads" (fun () -> !finals <> []);
  let current rel =
    let src = Vdp.Graph.source_of_leaf sys.vdp rel in
    Array.fold_left
      (fun acc srcs ->
        let b = Adapter.current (source_named srcs src) rel in
        match acc with None -> Some b | Some acc -> Some (Bag.union acc b))
      None sys.srcs
  in
  List.iter
    (fun (node, (a : Qp.answer)) ->
      if a.Qp.quality <> Qp.Fresh then fail "final read of %s was stale" node;
      let oracle = Eval.eval ~env:current (Vdp.Graph.expanded_def sys.vdp node) in
      if not (Bag.equal oracle a.Qp.tuples) then
        fail "final read of %s (%d tuples) differs from the oracle (%d tuples)" node
          (Bag.cardinal a.Qp.tuples) (Bag.cardinal oracle))
    !finals;
  match w with
  | Hybrid_poll ->
    let report =
      Correctness.Checker.check ~vdp:sys.vdp ~sources:sys.srcs.(0)
        ~events:(Mediator.events sys.meds.(0)) ()
    in
    if not (Correctness.Checker.consistent report) then
      fail "checker: %d violations" (List.length report.Correctness.Checker.violations);
    if Correctness.Checker.bound_violations report <> [] then
      fail "checker: %d freshness-bound violations"
        (List.length (Correctness.Checker.bound_violations report))
  | Update_stream | Fed_scatter -> ()

(* --- one trial ----------------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

type trial = {
  t_setups : float list;  (** host seconds of each set-up the trial ran *)
  t_window : window;
  t_lags_ms : float array;
  t_ops : int;  (** update transactions made visible plus queries answered *)
  t_heap_mb : float;
  t_layers : metric list;  (** traced trials: the per-layer split *)
}

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let span_served trace =
  let tbl = Hashtbl.create 1024 in
  Obs.Trace.iter_spans
    (fun sp ->
      if String.equal sp.Obs.Trace.name "query_tx" then
        Option.iter (Hashtbl.replace tbl sp.Obs.Trace.id) (Obs.Trace.attr sp "served"))
    trace;
  tbl

(* A layer that served nothing reports 0. *)
let p50 xs = if xs = [||] then 0.0 else Stats.median xs
let p50l l = p50 (Array.of_list l)

(* The per-layer split of one traced trial. Counters and spans cover
   the window, except the initial snapshot's ops. *)
let layers sys (st : setup_times) pr (win : window) ~ops =
  let d name = delta win name in
  let traces = Array.map Mediator.trace sys.meds in
  let all_traces f =
    Array.fold_left (fun acc tr -> acc + f tr) 0 traces
    + Option.fold ~none:0 ~some:(fun fed -> f (Fed.Coordinator.trace fed)) sys.fed
  in
  let self ?(since = win.w_sim_start) name =
    Array.fold_left (fun acc tr -> acc + Stats.self_ops_by_name ~since tr name) 0 traces
  in
  let poll_rtts =
    Array.of_list
      (List.concat_map
         (fun tr ->
           List.filter_map
             (fun sp ->
               if sp.Obs.Trace.start_time >= win.w_sim_start then
                 Some (Obs.Trace.duration sp *. 1e3)
               else None)
             (Obs.Trace.find tr ~name:"poll"))
         (Array.to_list traces))
  in
  (* host time per query by the rung that served it; a federation
     query spans several shards' rungs, so only by its kind *)
  let served = span_served traces.(0) in
  let host_us keep =
    Array.of_list
      (List.filter_map
         (fun a -> if keep a then Some a.a_host_us else None)
         (Array.to_list win.w_answers))
  in
  let rung r =
    host_us (fun a ->
        sys.fed = None
        &&
        if a.a_cache_hit then r = "cache"
        else
          Option.bind a.a_trace_id (Hashtbl.find_opt served) = Some r)
  in
  let fed_kind kinds = host_us (fun a -> sys.fed <> None && List.mem a.a_query.q_label kinds) in
  let tuples_returned =
    Array.fold_left (fun acc a -> acc + a.a_rows) 0 win.w_answers
  in
  let total_s us = List.fold_left ( +. ) 0.0 us /. 1e6 in
  let query_s = total_s (Array.to_list (Array.map (fun a -> a.a_host_us) win.w_answers)) in
  (* federation commits are timed around the router, which includes
     the shards' source commits *)
  let commit_s = total_s (if sys.fed = None then pr.commit_us else pr.route_us) in
  let enqueue_s = total_s pr.enqueue_us in
  let shard_ops =
    Array.map
      (fun m ->
        let s = Mediator.stats m in
        float_of_int (cv s.Med.ops_update + cv s.Med.ops_query))
      sys.meds
  in
  let srcs = List.concat (Array.to_list sys.srcs) in
  let f = float_of_int in
  [
    ("workload.gen_s", "s", st.gen_s);
    ("source.load_s", "s", st.load_s);
    ("source.commit_us_p50", "us", p50l pr.commit_us);
    ("source.commit_words", "words", p50l pr.commit_words);
    ( "source.history_versions",
      "count",
      f (List.fold_left (fun acc a -> acc + Adapter.history_length a) 0 srcs) );
    ("source.polls_served", "count", f (d "polls_served"));
    ("sim.messages", "count", f pr.messages);
    ("core.init_s", "s", st.init_s);
    ("core.init_ops", "ops", f (self ~since:Float.neg_infinity "snapshot"));
    ("core.enqueue_us_p50", "us", p50l pr.enqueue_us);
    ("core.queue_depth_max", "count", f pr.queue_max);
    ("core.batch_mean", "count", Stats.ratio (d "coalesced_txs") (d "batches"));
    ("core.annihilated_ratio", "ratio", Stats.ratio (d "annihilated_pairs") (d "atoms_received"));
    ("core.maintain_s", "s", win.w_host_s -. commit_s -. query_s -. enqueue_s);
    ("core.iup_ops", "ops", f (self "kernel_pass"));
    ("core.self_maintained_ratio", "ratio", Stats.ratio (d "self_maintained_txs") (d "batches"));
    ("core.vap_polls", "count", f (d "polls"));
    ("core.vap_tuples_per_poll", "tuples", Stats.ratio (d "polled_tuples") (d "polls"));
    ("core.vap_rtt_sim_ms_p50", "sim_ms", p50 poll_rtts);
    ("core.eca_ops", "ops", f (self "eca"));
    ("core.temps_built", "count", f (d "temps_built"));
    ("core.key_based", "count", f (d "key_based_constructions"));
    ("core.qp_store_us_p50", "us", p50 (rung "store"));
    ("core.qp_cache_us_p50", "us", p50 (rung "cache"));
    ("core.qp_key_based_us_p50", "us", p50 (rung "key_based"));
    ("core.qp_vap_us_p50", "us", p50 (rung "vap"));
    ("core.qp_rows_examined_per_row", "ratio", Stats.ratio (d "ops_query") tuples_returned);
    ( "core.cache_hit_ratio",
      "ratio",
      Stats.ratio (d "cache_hits") (d "cache_hits" + d "cache_misses") );
    ("core.cache_invalidations", "count", f (d "cache_invalidations"));
    ("core.query_words", "words", Stats.mean (Array.map (fun a -> a.a_words) win.w_answers));
    ("delta.ops", "ops", f (self "delta"));
    ("relalg.join_hash", "count", f (d "join_chosen:hash"));
    ("relalg.join_leapfrog", "count", f (d "join_chosen:leapfrog"));
    ("relalg.join_nested", "count", f (d "join_chosen:nested_loop"));
    ("storage.apply_ops", "ops", f (self "apply"));
    ( "storage.store_mb",
      "MB",
      f (Array.fold_left (fun acc m -> acc + Mediator.store_bytes m) 0 sys.meds) /. 1e6 );
    ("fed.route_us_p50", "us", p50l pr.route_us);
    ("fed.point_us_p50", "us", p50 (fed_kind [ "point" ]));
    ("fed.scatter_us_p50", "us", p50 (fed_kind [ "group"; "hot" ]));
    ("fed.fanout_ratio", "ratio", Stats.ratio (d "fed_fanouts") (d "fed_queries"));
    ( "fed.cache_hit_ratio", "ratio",
      Stats.ratio (d "fed_cache_hits") (d "fed_cache_hits" + d "fed_cache_misses") );
    ( "fed.shard_skew", "ratio",
      if sys.fed = None then 0.0
      else Array.fold_left Float.max 0.0 shard_ops /. Stats.mean shard_ops );
    (* filled in from the untraced trials by [per_layer] *)
    ("obs.trace_overhead_pct", "%", 0.0);
    ("obs.spans", "count", f (all_traces Obs.Trace.spans_recorded));
    ("obs.dropped_roots", "count", f (all_traces Obs.Trace.dropped_roots));
    ("gc.minor_words_per_op", "words", win.w_minor_words /. f (max 1 ops));
    ("gc.major_collections", "count", f win.w_major);
  ]
  |> List.map (fun (m_name, m_unit, m_value) -> { m_name; m_unit; m_value })

let setup_total st = st.gen_s +. st.load_s +. st.init_s
let min_setup_s = 0.25

let run_trial w ~seed ~traced ~first =
  let sz = sizing w in
  let capacity = (4 * (sz.txs + sz.queries)) + 100_000 in
  (* a set-up shorter than [min_setup_s] is repeated, so that its median
     rests on enough of them; the last one built is the one measured *)
  let rec set_up earlier =
    let pr = fresh_probes () in
    let sys, st = setup w ~seed ~traced ~capacity pr in
    let setups = setup_total st :: earlier in
    if List.fold_left ( +. ) 0.0 setups >= min_setup_s || List.length setups >= 50 then
      (sys, st, pr, setups)
    else set_up setups
  in
  let sys, st, pr, setups = set_up [] in
  let txs, queries = plan w ~seed sys in
  let win = run_window sys sz txs queries in
  let heap = heap_mb () in
  let h0 = wall () in
  if first then check_trial w sys txs win;
  Printf.eprintf
    "trial%s: setup %.3f s (gen %.3f, load %.3f, init %.3f), window %.3f s, checks %.3f s\n%!"
    (if traced then " (traced)" else "")
    (setup_total st) st.gen_s st.load_s st.init_s win.w_host_s
    (wall () -. h0);
  let lags = Array.map (fun s -> s *. 1e3) (visible_lags sys win) in
  let committed = Array.fold_left (fun acc vs -> acc + List.length vs) 0 win.w_versions in
  if Array.length lags <> committed then
    fail "%d source versions committed but %d made visible" committed (Array.length lags);
  let ops = Array.length txs + Array.length queries in
  let layers =
    if not traced then []
    else begin
      let l = layers sys st pr win ~ops in
      if List.exists (fun m -> m.m_name = "obs.dropped_roots" && m.m_value > 0.0) l then
        fail "the trace dropped root spans; raise its capacity";
      l
    end
  in
  (* point rows were needed by the checks only *)
  let win =
    { win with w_answers = Array.map (fun a -> { a with a_point = None }) win.w_answers }
  in
  {
    t_setups = setups;
    t_window = win;
    t_lags_ms = lags;
    t_ops = ops;
    t_heap_mb = heap;
    t_layers = layers;
  }

(* --- metrics ---------------------------------------------------------------- *)

(* Figures that depend on the seed alone: answers, simulated times,
   failures, tuple ops and polls. Every trial of a run must reproduce
   the first trial's, which passed the full checks. *)
let deterministic (t : trial) =
  let win = t.t_window in
  ( Array.map
      (fun a -> (a.a_sim_ms, a.a_cache_hit, a.a_digest, a.a_fresh, a.a_reflect))
      win.w_answers,
    failed_ops win,
    t.t_lags_ms,
    delta win "ops_query",
    delta win "ops_update",
    (* VAP polls plus anti-entropy heartbeats *)
    delta win "polls" + delta win "version_checks" )

let end_to_end (trials : trial list) =
  let first = List.hd trials in
  let win = first.t_window in
  let answers, failed, lags, ops_q, ops_u, polls = deterministic first in
  let sim_ms = Array.map (fun (ms, _, _, _, _) -> ms) answers in
  let n_tx = Array.length win.w_versions and n_q = Array.length win.w_answers in
  (* every trial issues the same queries: each query's host time is the
     median of its executions, which sheds a trial that ran through a
     slow spell of the host *)
  let host_us =
    Array.init n_q (fun i ->
        Stats.median
          (Array.of_list (List.map (fun t -> t.t_window.w_answers.(i).a_host_us) trials)))
  in
  if not (Stats.tail_supported ~n:n_q 95.0) then fail "%d queries cannot support a p95" n_q;
  if not (Stats.tail_supported ~n:(Array.length lags) 99.0) then
    fail "%d visible-lag samples cannot support a p99" (Array.length lags);
  [
    ("setup_s", "s", Stats.median (Array.of_list (List.concat_map (fun t -> t.t_setups) trials)));
    ( "ops_per_s",
      "1/s",
      Stats.median
        (Array.of_list
           (List.map (fun t -> float_of_int t.t_ops /. t.t_window.w_host_s) trials)) );
    ("query_us_p50", "us", Stats.percentile host_us 50.0);
    ("query_us_p95", "us", Stats.percentile host_us 95.0);
    ("query_sim_ms_p50", "sim_ms", Stats.percentile sim_ms 50.0);
    ("query_sim_ms_p95", "sim_ms", Stats.percentile sim_ms 95.0);
    ("visible_lag_sim_ms_p50", "sim_ms", Stats.percentile lags 50.0);
    ("visible_lag_sim_ms_p99", "sim_ms", Stats.percentile lags 99.0);
    ("tuple_ops_per_query", "ops", Stats.ratio ops_q n_q);
    ("tuple_ops_per_update", "ops", Stats.ratio ops_u n_tx);
    ("polls_per_op", "polls", Stats.ratio polls (n_tx + n_q));
    ("heap_peak_mb", "MB", first.t_heap_mb);
    ("failed_op_ratio", "ratio", Stats.ratio failed (n_tx + n_q));
  ]
  |> List.map (fun (m_name, m_unit, m_value) -> { m_name; m_unit; m_value })

(* End-to-end metrics the benchmark's JSON line carries: those that are
   non-zero on every workload. [query_sim_ms_*] is 0 wherever nothing
   is polled at query time, and [failed_op_ratio] is 0 in any run that
   passes its checks, so both are printed in the table only. *)
let json_end_to_end =
  [
    "setup_s"; "ops_per_s"; "query_us_p50"; "query_us_p95";
    "visible_lag_sim_ms_p50"; "visible_lag_sim_ms_p99"; "tuple_ops_per_query";
    "tuple_ops_per_update"; "polls_per_op"; "heap_peak_mb";
  ]

let per_layer ~untraced ~traced =
  let med f l = Stats.median (Array.of_list (List.map f l)) in
  let window (t : trial) = t.t_window.w_host_s in
  let overhead = ((med window traced /. med window untraced) -. 1.0) *. 100.0 in
  List.map
    (fun m ->
      let m_value =
        if String.equal m.m_name "obs.trace_overhead_pct" then overhead
        else
          med
            (fun t -> (List.find (fun m' -> String.equal m'.m_name m.m_name) t.t_layers).m_value)
            traced
      in
      { m with m_value })
    (List.hd traced).t_layers

(* --- driver ------------------------------------------------------------------- *)

let json_number v =
  if not (Float.is_finite v) then fail "metric value %f is not finite" v;
  Printf.sprintf "%.17g" v

let print_result ~seed ~attempted metrics =
  List.iter
    (fun m -> Printf.printf "%-30s %20.6f %s\n" m.m_name m.m_value m.m_unit)
    metrics;
  Printf.printf "seed %d\n" seed;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
    attempted body

(* A run stops once its windows reach [seconds] and it has at least
   three trials, so that set-up, throughput and each query's host time
   are medians of three; it fails when [budget] host seconds are spent
   first. Trial 1 is checked in full; every later one must reproduce its
   answers, simulated times, tuple ops and polls exactly. *)
let budget = 140.0

(* The same work laid out differently in memory runs at a different
   speed: on hybrid_poll, one seed ran a third slower than another in
   every host time, down to cache hits, run after run, and padding
   allocated before the trial moved a seed's throughput by 10-20 %.
   A seed alone would fix one
   layout for the whole run, so each trial first keeps a seeded-random
   amount of padding alive (under 1 MB), and a run's medians span as
   many layouts as it has trials. *)
let shift_layout ~seed ~trial =
  let rng = Random.State.make [| seed; trial |] in
  Array.init (Random.State.int rng 16_384) (fun i -> Bytes.create (8 * (1 + (i mod 8))))

(* Run [f] in a forked child and return its result. Every trial then
   starts from the parent's small heap: in one process, each trial would
   inherit the garbage and fragmentation its predecessors left, and
   later trials would run slower than earlier ones. The child sends
   its result, or the message of a failed check, back through a pipe;
   the parent waits for it to end. *)
let in_child (f : unit -> trial) : trial =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result : (trial, string) result =
      match f () with
      | t -> Ok t
      | exception Check_failed msg -> Error msg
      | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result : (trial, string) result option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (result, status) with
    | Some (Ok t), Unix.WEXITED 0 -> t
    | Some (Error msg), _ -> raise (Check_failed msg)
    | _ -> fail "a trial process ended without a result"

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  let started = wall () in
  let trials = ref [] in
  let measured = ref 0.0 in
  let enough () = List.length !trials >= (if trace then 4 else 3) && !measured >= seconds in
  while not (enough ()) do
    if wall () -. started > budget then
      fail "the run exceeded its %.0f s budget after %d trials" budget (List.length !trials);
    let traced = trace && List.length !trials mod 2 = 1 in
    let first = !trials = [] in
    let trial = List.length !trials in
    let t =
      in_child (fun () ->
          let pad = shift_layout ~seed ~trial in
          let t = run_trial w ~seed ~traced ~first in
          ignore (Sys.opaque_identity pad);
          t)
    in
    (match !trials with
    | first :: _ when deterministic first <> deterministic t ->
      fail "trial %d disagrees with trial 1 on answers, simulated time, tuple ops or polls"
        (List.length !trials + 1)
    | _ -> ());
    trials := !trials @ [ t ];
    measured := !measured +. t.t_window.w_host_s
  done;
  let attempted = List.fold_left (fun acc t -> acc + t.t_ops) 0 !trials in
  if not trace then begin
    let all = end_to_end !trials in
    List.iter
      (fun m -> Printf.printf "%-30s %20.6f %s\n" m.m_name m.m_value m.m_unit)
      (List.filter (fun m -> not (List.mem m.m_name json_end_to_end)) all);
    print_result ~seed ~attempted
      (List.map (fun n -> List.find (fun m -> String.equal m.m_name n) all) json_end_to_end)
  end
  else begin
    let traced, untraced = List.partition (fun t -> t.t_layers <> []) !trials in
    print_result ~seed ~attempted (per_layer ~untraced ~traced)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured host seconds per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced per-layer run (1)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  match main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0) with
  | () -> ()
  | exception Check_failed msg ->
    prerr_endline ("perfbench: check failed: " ^ msg);
    exit 1
