open Relalg
open Vdp
open Sim
open Sources
open Storage

let reflect_vector (t : Med.t) ~polled =
  List.map
    (fun src ->
      match Med.contributor_kind t src with
      | Med.Virtual_contributor -> (
        match List.assoc_opt src polled with
        | Some v -> (src, Med.Version v)
        | None -> (src, Med.Current))
      | Med.Materialized_contributor | Med.Hybrid_contributor ->
        (src, Med.Version (Med.reflected_version t src).Med.r_version))
    (Graph.sources t.Med.vdp)

let dedup attrs = List.sort_uniq String.compare attrs

type quality = Fresh | Stale of Med.staleness list

type answer = {
  tuples : Bag.t;
  quality : quality;
  reflect : (string * Med.reflect_entry) list;
  bound : (string * float) list;
  trace_id : int option;
}

type slo_miss = {
  sm_node : string;
  sm_slo : float;
  sm_bound : (string * float) list;
}

exception Slo_unsatisfiable of slo_miss

let () =
  Printexc.register_printer (function
    | Slo_unsatisfiable m ->
      Some
        (Printf.sprintf "Slo_unsatisfiable(%s: slo %g, achievable %s)"
           m.sm_node m.sm_slo
           (String.concat ", "
              (List.map
                 (fun (s, b) -> Printf.sprintf "%s=%g" s b)
                 m.sm_bound)))
    | _ -> None)

let bound_ok bound slo = List.for_all (fun (_, b) -> b <= slo +. 1e-9) bound

let staleness_of (t : Med.t) srcs =
  let now = Engine.now t.Med.engine in
  List.map
    (fun s ->
      let r = Med.reflected_version t s in
      {
        Med.st_source = s;
        st_version = r.Med.r_version;
        st_age = now -. r.Med.r_commit_time;
      })
    (List.sort_uniq String.compare srcs)

(* every query transaction starts by repairing known gaps; if the
   source is still unreachable the dirty mark stays and the answer
   will carry staleness markers for it *)
let pre_repair (t : Med.t) =
  try Resync.resync_if_dirty t with Med.Poll_failed _ -> ()

let base_stale (t : Med.t) =
  match Med.dirty_sources t with [] -> [] | dirty -> staleness_of t dirty

let key_based_plan (t : Med.t) ~node ~needed =
  if not t.Med.config.Med.Config.key_based_enabled then None
  else
    let mat = Med.mat_attrs t node in
    let virtual_needed = List.filter (fun a -> not (List.mem a mat)) needed in
    if virtual_needed = [] then None
    else
      match (Graph.node t.Med.vdp node).Graph.kind with
      | Graph.Leaf _ -> None
      | Graph.Derived def when not (Expr.is_spj def) -> None
      | Graph.Derived _ ->
        List.find_map
          (fun child ->
            let cs = (Graph.node t.Med.vdp child).Graph.schema in
            let key = Schema.key cs in
            if
              key <> []
              && List.for_all (fun k -> List.mem k mat) key
              && List.for_all (fun a -> Schema.mem cs a) virtual_needed
            then Some (child, key)
            else None)
          (Graph.children t.Med.vdp node)

(* SLO escalation: any announcing contributor whose reflected send
   time already lags beyond the requested bound gets an {e empty}
   poll — the source flushes pending announcements before answering
   and the channel is FIFO, so by the time the answer is back every
   outstanding delta is enqueued — after which the update queue is
   drained in place (the mediator mutex is held, so this calls the
   unlocked transaction body). Virtual contributors need no escalation:
   the ladder below polls them anyway.

   Returns [(escalated, witnesses)]: for every polled source whose
   version the drained queue actually caught up to, the poll's
   [state_time] is a fresh freshness witness (at that instant the
   source had nothing newer than what we now reflect). A source the
   drain could NOT catch up to (lost announcements, resync deferred)
   gets no witness — its bound must stay honest about the old
   reflected state. *)
let slo_prepoll (t : Med.t) ~slo =
  let now = Engine.now t.Med.engine in
  let laggards =
    List.filter
      (fun s ->
        match Med.contributor_kind t s with
        | Med.Virtual_contributor -> false
        | Med.Materialized_contributor | Med.Hybrid_contributor ->
          now -. (Med.reflected_version t s).Med.r_send_time > slo)
      (Graph.sources t.Med.vdp)
  in
  if laggards = [] then (false, [])
  else begin
    let polled =
      Obs.Trace.with_span t.Med.trace "slo_poll"
        ~attrs:[ ("sources", String.concat "," laggards) ]
        (fun _sp ->
          let polled =
            List.filter_map
              (fun src_name ->
                match Med.poll_with_retry t (Med.source t src_name) [] with
                | a ->
                  Obs.Metrics.incr t.Med.stats.Med.slo_polls;
                  if a.Message.answer_version > Med.seen_version t src_name
                  then begin
                    (* the flush's announcements were lost in transit —
                       the heartbeat idiom: mark for resync *)
                    Med.gap_event t ~source:src_name ~via:"slo_poll"
                      [ ("version", string_of_int a.Message.answer_version) ];
                    Med.mark_dirty t src_name
                  end;
                  Med.observe_source_version t src_name
                    a.Message.answer_version;
                  Some
                    (src_name, a.Message.state_time, a.Message.answer_version)
                | exception (Med.Poll_failed _ | Med.Desync _) ->
                  (* unreachable source: let the ladder degrade and the
                     final bound check refuse *)
                  None)
              laggards
          in
          ignore (Iup.drain t : bool);
          polled)
    in
    let witnesses =
      List.filter_map
        (fun (src, w, v) ->
          if (Med.reflected_version t src).Med.r_version >= v then Some (src, w)
          else None)
        polled
    in
    (true, witnesses)
  end

(* Every store-served read — the store rung, the multi-query store
   branch and both degraded reads — goes through the table's access
   path: an index probe when [cond] pins an index, otherwise a scan. *)
let read_store (t : Med.t) table ~attrs cond =
  let tuples, access = Table.select table ~attrs cond in
  (match access with
  | Table.Probe -> Obs.Metrics.incr t.Med.stats.Med.store_probes
  | Table.Scan -> ());
  (tuples, access)

let validate_request (t : Med.t) node attrs cond =
  let n = Graph.node t.Med.vdp node in
  if not n.Graph.export then Med.err "%S is not an export relation" node;
  let schema = n.Graph.schema in
  let attrs = match attrs with Some a -> a | None -> Schema.attrs schema in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        Med.err "export %S has no attribute %S" node a)
    (attrs @ Predicate.attrs cond);
  attrs

let query_many (t : Med.t) requests =
  let requests =
    List.map
      (fun (node, attrs, cond) -> (node, validate_request t node attrs cond, cond))
      requests
  in
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () ->
      pre_repair t;
      Obs.Trace.with_span t.Med.trace "query_tx"
        ~attrs:
          [
            ("kind", "multi");
            ("nodes", String.concat "," (List.map (fun (n, _, _) -> n) requests));
          ]
        (fun tx_sp ->
      let tx_start = Engine.now t.Med.engine in
      let ops_before = Eval.tuple_ops () in
      List.iter
        (fun (node, attrs, cond) ->
          Med.record_access t ~node
            ~attrs:(dedup (attrs @ Predicate.attrs cond)))
        requests;
      Med.Log.debug (fun m ->
          m "multi-query tx @%g over %s"
            (Engine.now t.Med.engine)
            (String.concat ", " (List.map (fun (n, _, _) -> n) requests)));
      (* split into store-covered requests and VAP requests; the VAP
         gets the whole set at once, so phase 1 merges overlapping
         needs and each source is polled at most once for the entire
         transaction (Sec. 6.3's single-transaction packaging) *)
      let vap_requests =
        List.filter_map
          (fun (node, attrs, cond) ->
            let needed =
              List.sort_uniq String.compare (attrs @ Predicate.attrs cond)
            in
            if Med.is_covered t ~node ~attrs:needed then None
            else Some { Vap.r_node = node; r_attrs = needed; r_cond = cond })
          requests
      in
      let empty_result =
        { Vap.temps = []; polled_versions = []; polled_times = [] }
      in
      (* [failure] is set when fresh data could not be fetched: every
         answer of the transaction is then served degraded from the
         materialized store, stale-marked with the unreachable
         sources *)
      let vap_result, stale, failure =
        if vap_requests = [] then (empty_result, base_stale t, None)
        else
          try (Vap.build t ~kind:`Query vap_requests, base_stale t, None)
          with
          | Med.Poll_failed pe as exn ->
            ( empty_result,
              staleness_of t (pe.pe_source :: Med.dirty_sources t),
              Some exn )
          | Med.Desync _ as exn ->
            (empty_result, staleness_of t (Med.dirty_sources t), Some exn)
      in
      let accesses = ref [] in
      let from_store table ~attrs cond =
        let tuples, access = read_store t table ~attrs cond in
        accesses := Table.access_to_string access :: !accesses;
        tuples
      in
      let answers =
        List.map
          (fun (node, attrs, cond) ->
            match List.assoc_opt node vap_result.Vap.temps with
            | Some temp -> (node, Bag.project attrs (Bag.select cond temp))
            | None -> (
              let needed = dedup (attrs @ Predicate.attrs cond) in
              match Med.node_table t node with
              | Some table when Med.is_covered t ~node ~attrs:needed ->
                Obs.Metrics.incr t.Med.stats.Med.queries_from_store;
                (node, from_store table ~attrs cond)
              | Some table -> (
                (* fresh data unreachable: degrade to the materialized
                   portion — only materialized attributes survive, and
                   only conditions over them apply *)
                match failure with
                | Some exn ->
                  let mat = Med.mat_attrs t node in
                  let avail = List.filter (fun a -> List.mem a mat) attrs in
                  if avail = [] then raise exn;
                  ( node,
                    from_store table ~attrs:avail
                      (Predicate.restrict_to cond mat) )
                | None ->
                  Med.err "export %S not covered and no temporary built" node)
              | None -> (
                match failure with
                | Some exn -> raise exn
                | None ->
                  Med.err "export %S neither materialized nor built" node)))
          requests
      in
      if !accesses <> [] then
        Obs.Trace.set_attr tx_sp "access"
          (String.concat "," (List.rev !accesses));
      (* one transaction: every answer shares one reflect vector and
         one commit instant *)
      let reflect = reflect_vector t ~polled:vap_result.Vap.polled_versions in
      let bound =
        Med.answer_bound t ~polled_times:vap_result.Vap.polled_times ~stale ()
      in
      let time = Engine.now t.Med.engine in
      Obs.Metrics.incr t.Med.stats.Med.query_txs;
      if stale <> [] then begin
        Obs.Metrics.incr t.Med.stats.Med.degraded_answers;
        Obs.Trace.set_attr tx_sp "degraded" "true"
      end;
      Med.charge_ops t `Query (Eval.tuple_ops () - ops_before);
      Obs.Metrics.observe t.Med.stats.Med.query_tx_time
        (Engine.now t.Med.engine -. tx_start);
      List.iter2
        (fun (node, attrs, cond) (_, answer) ->
          Med.log_event t
            (Med.Query_tx
               {
                 qt_time = time;
                 qt_node = node;
                 qt_attrs = attrs;
                 qt_cond = cond;
                 qt_answer = answer;
                 qt_reflect = reflect;
                 qt_stale = stale;
                 qt_bound = bound;
               }))
        requests answers;
      answers))

let query (t : Med.t) ~node ?attrs ?(cond = Predicate.True) ?max_staleness ()
    =
  let attrs = validate_request t node attrs cond in
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () ->
      pre_repair t;
      (* the transaction clock starts before SLO escalation: a forced
         flush-and-drain is part of serving this query, and its
         round-trips must show up in query_tx_time *)
      let tx_start = Engine.now t.Med.engine in
      (* freshness SLO, step 1: announcing contributors whose reflected
         state already lags beyond the bound are force-flushed and the
         queue drained before any strategy is considered *)
      let escalated, prepoll_times =
        match max_staleness with
        | None -> (false, [])
        | Some slo -> slo_prepoll t ~slo
      in
      (* strategy-supplied witnesses win over prepoll witnesses: the
         bound takes the first entry per source, and a strategy's own
         poll is always at least as recent *)
      let with_prepoll polled_times = polled_times @ prepoll_times in
      let slo_met bound =
        match max_staleness with
        | None -> true
        | Some slo -> bound_ok bound slo
      in
      let ops_before = Eval.tuple_ops () in
      let needed = dedup (attrs @ Predicate.attrs cond) in
      Med.record_access t ~node ~attrs:needed;
      (* answer cache: a surviving entry means no delta arrived, no
         table changed, and no newer source version was observed for
         any node the answer can see — serve it as Fresh. The reflect
         vector is recomputed at serve time from the entry's recorded
         polled versions: entries for sources the answer does not
         depend on stay monotone with the mediator's current state.
         A hit records no span of its own — the whole path is two hash
         lookups, and trace allocation must not dominate it (e16); the
         answer instead carries the id of the query_tx span that
         originally computed it, and the hit shows up in the
         cache_hits counter and the query_tx_time histogram. *)
      let cached =
        match Med.cache_lookup t ~node ~attrs ~cond with
        | Some ca
          when slo_met
                 (Med.answer_bound t
                    ~polled_times:(with_prepoll ca.Med.ca_polled_times)
                    ())
          ->
          Obs.Metrics.incr t.Med.stats.Med.cache_hits;
          Obs.Metrics.incr t.Med.stats.Med.query_txs;
          Med.charge_ops t `Query (Eval.tuple_ops () - ops_before);
          Obs.Metrics.observe t.Med.stats.Med.query_tx_time
            (Engine.now t.Med.engine -. tx_start);
          let trace_id = ca.Med.ca_trace_id in
          let reflect = reflect_vector t ~polled:ca.Med.ca_polled in
          (* the bound is recomputed at serve time: witnesses are the
             entry's recorded poll times and the current reflected
             send times, exactly as for a computed answer *)
          let bound =
            Med.answer_bound t
              ~polled_times:(with_prepoll ca.Med.ca_polled_times)
              ()
          in
          Med.log_event t
            (Med.Query_tx
               {
                 qt_time = Engine.now t.Med.engine;
                 qt_node = node;
                 qt_attrs = attrs;
                 qt_cond = cond;
                 qt_answer = ca.Med.ca_answer;
                 qt_reflect = reflect;
                 qt_stale = [];
                 qt_bound = bound;
               });
          Some
            {
              tuples = ca.Med.ca_answer;
              quality = Fresh;
              reflect;
              bound;
              trace_id;
            }
        | Some _ | None ->
          (* a surviving entry that cannot meet the SLO is bypassed,
             not evicted: the computed answer below will overwrite it *)
          if t.Med.config.Med.Config.answer_cache_enabled then
            Obs.Metrics.incr t.Med.stats.Med.cache_misses;
          None
      in
      match cached with
      | Some hit -> hit
      | None ->
      Obs.Trace.with_span t.Med.trace "query_tx" ~attrs:[ ("node", node) ]
        (fun tx_sp ->
      let trace_id = Obs.Trace.span_id tx_sp in
      let finish ?(stale = []) ?(polled_times = []) ~served answer polled =
        let polled_times = with_prepoll polled_times in
        let bound = Med.answer_bound t ~polled_times ~stale () in
        (* freshness SLO, step 2: the chosen strategy's answer must
           actually meet the bound — if even a forced poll could not
           (source down, or the round-trip itself exceeds the SLO),
           refuse with a typed error rather than serve a lie *)
        (match max_staleness with
        | Some slo when not (bound_ok bound slo) ->
          Obs.Metrics.incr t.Med.stats.Med.slo_refusals;
          Obs.Trace.set_attr tx_sp "served" "refused";
          raise
            (Slo_unsatisfiable
               { sm_node = node; sm_slo = slo; sm_bound = bound })
        | Some _ | None -> ());
        Obs.Metrics.incr t.Med.stats.Med.query_txs;
        if stale <> [] then Obs.Metrics.incr t.Med.stats.Med.degraded_answers;
        Med.charge_ops t `Query (Eval.tuple_ops () - ops_before);
        Obs.Trace.set_attr tx_sp "served"
          (if escalated then "slo_poll" else served);
        Obs.Metrics.observe t.Med.stats.Med.query_tx_time
          (Engine.now t.Med.engine -. tx_start);
        let reflect = reflect_vector t ~polled in
        Med.log_event t
          (Med.Query_tx
             {
               qt_time = Engine.now t.Med.engine;
               qt_node = node;
               qt_attrs = attrs;
               qt_cond = cond;
               qt_answer = answer;
               qt_reflect = reflect;
               qt_stale = stale;
               qt_bound = bound;
             });
        (* only answers the checker may hold to full validity are
           worth replaying; degraded answers must be recomputed *)
        if stale = [] then
          Med.cache_store t ~node ~attrs ~cond ~polled ~polled_times
            ?trace_id answer;
        {
          tuples = answer;
          quality = (if stale = [] then Fresh else Stale stale);
          reflect;
          bound;
          trace_id;
        }
      in
      (* fresh data unreachable: serve what the store has — the
         materialized subset of the requested attributes, under the
         conditions those attributes can express — marked stale *)
      let degrade ~exn srcs =
        match Med.node_table t node with
        | Some table ->
          let mat = Med.mat_attrs t node in
          let avail = List.filter (fun a -> List.mem a mat) attrs in
          if avail = [] then raise exn;
          Med.Log.warn (fun m ->
              m "degraded answer for %s @%g: %s" node
                (Engine.now t.Med.engine)
                (Printexc.to_string exn));
          Obs.Trace.set_attr tx_sp "error" (Printexc.to_string exn);
          let tuples, access =
            read_store t table ~attrs:avail (Predicate.restrict_to cond mat)
          in
          Obs.Trace.set_attr tx_sp "access" (Table.access_to_string access);
          finish ~stale:(staleness_of t srcs) ~served:"degraded" tuples []
        | None -> raise exn
      in
      let with_degrade f =
        try f ()
        with
        | Med.Poll_failed pe as exn ->
          degrade ~exn (pe.pe_source :: Med.dirty_sources t)
        | Med.Desync _ as exn -> degrade ~exn (Med.dirty_sources t)
      in
      Med.Log.debug (fun m ->
          m "query tx @%g: π(%s) σ(%s) %s"
            (Engine.now t.Med.engine)
            (String.concat "," attrs)
            (Predicate.to_string cond)
            node);
      if Med.is_covered t ~node ~attrs:needed then begin
        let table = Option.get (Med.node_table t node) in
        Obs.Metrics.incr t.Med.stats.Med.queries_from_store;
        let tuples, access = read_store t table ~attrs cond in
        Obs.Trace.set_attr tx_sp "access" (Table.access_to_string access);
        finish ~stale:(base_stale t) ~served:"store" tuples []
      end
      else
        with_degrade @@ fun () -> begin
        (* how many children would the general construction touch at
           virtual attributes? *)
        let general_uncovered =
          List.length
            (List.filter
               (fun (child, b, _) ->
                 (not (Graph.is_leaf t.Med.vdp child))
                 && not (Med.is_covered t ~node:child ~attrs:b))
               (Derived_from.derived_from t.Med.vdp ~node ~attrs:needed ~cond))
        in
        match key_based_plan t ~node ~needed with
        | Some (child, key) when general_uncovered > 1 || general_uncovered = 0
          -> begin
          (* Example 2.3: fetch virtual attributes through the
             materialized key from a single child *)
          let mat = Med.mat_attrs t node in
          let virtual_needed =
            List.filter (fun a -> not (List.mem a mat)) needed
          in
          let cs = (Graph.node t.Med.vdp child).Graph.schema in
          let c_needed =
            dedup
              (key @ virtual_needed
              @ List.filter (fun a -> Schema.mem cs a) (Predicate.attrs cond))
          in
          let c_cond = Predicate.restrict_to cond (Schema.attrs cs) in
          let c_part, (polled, polled_times) =
            if Med.is_covered t ~node:child ~attrs:c_needed then begin
              let table = Option.get (Med.node_table t child) in
              ( Bag.project c_needed (Bag.select c_cond (Table.contents table)),
                ([], []) )
            end
            else begin
              let res =
                Vap.build t ~kind:`Query
                  [ { Vap.r_node = child; r_attrs = c_needed; r_cond = c_cond } ]
              in
              ( List.assoc child res.Vap.temps,
                (res.Vap.polled_versions, res.Vap.polled_times) )
            end
          in
          let own_attrs =
            dedup (key @ List.filter (fun a -> List.mem a mat) needed)
          in
          let own_cond = Predicate.restrict_to cond mat in
          let own =
            match Med.node_table t node with
            | Some table ->
              Bag.project own_attrs (Bag.select own_cond (Table.contents table))
            | None -> Med.err "key-based plan on unmaterialized node %S" node
          in
          let joined = Bag.join own c_part in
          Obs.Metrics.incr t.Med.stats.Med.key_based_constructions;
          finish ~stale:(base_stale t) ~polled_times ~served:"key_based"
            (Bag.project attrs (Bag.select cond joined))
            polled
        end
        | Some _ | None ->
          let res =
            Vap.build t ~kind:`Query
              [ { Vap.r_node = node; r_attrs = needed; r_cond = cond } ]
          in
          let temp = List.assoc node res.Vap.temps in
          finish ~stale:(base_stale t) ~polled_times:res.Vap.polled_times
            ~served:"vap"
            (Bag.project attrs (Bag.select cond temp))
            res.Vap.polled_versions
      end))
