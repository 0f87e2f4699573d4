(* Metric arithmetic of the end-to-end benchmark, kept free of any
   workload so the test in test/ can pin it down on hand-made inputs. *)

open Squirrel

(* --- percentiles -------------------------------------------------------- *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile samples 50.0

(* A percentile is reported only when at least ten samples lie beyond
   it; below that, one outlier moves it. *)
let samples_beyond ~n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))
let tail_supported ~n p = samples_beyond ~n p >= 10

let mean = function
  | [||] -> 0.0
  | xs -> Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* --- self tuple ops from the span tree --------------------------------- *)

(* A span's [ops] are inclusive; its own share is what its children do
   not account for. *)
let self_ops (sp : Obs.Trace.span) =
  List.fold_left (fun acc (c : Obs.Trace.span) -> acc - c.Obs.Trace.ops)
    sp.Obs.Trace.ops sp.Obs.Trace.children

(* Self ops summed per span name over every retained span that opened
   at or after simulated time [since]. *)
let self_ops_by_name ?(since = Float.neg_infinity) trace =
  let tbl = Hashtbl.create 16 in
  Obs.Trace.iter_spans
    (fun sp ->
      if sp.Obs.Trace.start_time >= since then begin
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl sp.Obs.Trace.name) in
        Hashtbl.replace tbl sp.Obs.Trace.name (prev + self_ops sp)
      end)
    trace;
  fun name -> Option.value ~default:0 (Hashtbl.find_opt tbl name)

(* --- commit-to-visible lag --------------------------------------------- *)

exception Unlogged_version of string * int

(* Every source version a batch advanced over becomes visible at the
   batch's [ut_time]; its lag is that time minus the commit time the
   driver logged for it. Snapshot markers ([ut_txs = 0]) carry no
   interval. [commit_time src v] looks the driver's log up; a version
   it does not know means something committed behind the driver's
   back, which the benchmark treats as a failed check. *)
let visible_lags ~commit_time events =
  List.concat_map
    (function
      | Med.Update_tx { ut_time; ut_intervals; _ } ->
        List.concat_map
          (fun (src, (from_v, to_v)) ->
            List.init (to_v - from_v) (fun i ->
                let v = from_v + 1 + i in
                match commit_time src v with
                | Some c -> ut_time -. c
                | None -> raise (Unlogged_version (src, v))))
          ut_intervals
      | Med.Query_tx _ -> [])
    events

(* --- the commit log the point answers are checked against -------------- *)

(* One key's committed rows of one relation, newest first, each with
   the source version whose commit wrote it. *)
type 'row history = (int * 'row) list

(* The row a key held at [version]: the newest write at or below it,
   or the base row when none is. *)
let row_at ~base (hist : 'row history) ~version =
  match List.find_opt (fun (v, _) -> v <= version) hist with
  | Some (_, row) -> row
  | None -> base

(* A point answer is right when it holds exactly the row the log gives
   at the answer's reflected versions — one tuple of multiplicity one,
   equal field for field — or nothing when the log says no row
   qualifies. *)
let point_answer_ok ~expected (answer : Relalg.Bag.t) =
  match (expected, Relalg.Bag.to_list answer) with
  | None, [] -> true
  | Some fields, [ (t, 1) ] ->
    Relalg.Tuple.arity t = List.length fields
    && List.for_all
         (fun (a, v) ->
           match Relalg.Tuple.find_opt t a with
           | Some v' -> Relalg.Value.equal v v'
           | None -> false)
         fields
  | _ -> false
