(* figure_sweep: fig5 from a benchmark-written `.scn` to a CSV, through
   the public calls `experiments sweep` makes — Scenario.load,
   Sweep_engine.run_sweep on a fresh point-cache directory (2
   domains), the Eval model columns, Series.write_csv.  The simulator
   does nearly all the work and the points' costs differ tenfold, so
   the executor's scheduling sets the wall time. *)

open Common
module Eval = Fatnet_model.Eval
module Scenario = Fatnet_scenario.Scenario
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Runner = Fatnet_sim.Runner
module Series = Fatnet_report.Series
module Summary = Fatnet_stats.Summary

let domains = 2

(* The cut protocol: about a second of simulation per cold figure. *)
let warmup = 100
let measured = 1200
let drain = 100

let load path = match Scenario.load path with Ok s -> s | Error e -> failwith e

let config ~cache_dir =
  { Sweep_engine.default_config with
    domains = Some domains;
    cache = Sweep_engine.Cache_dir cache_dir;
    tracer = !tracer }

(* One figure: `.scn` → CSV.  Returns the CSV path, the outcome and
   the model columns. *)
let figure ~scn_path ~cache_dir ~csv =
  let scn = span "scenario.load" (fun () -> load scn_path) in
  let outcome =
    span "sweep.run_sweep" (fun () -> Sweep_engine.run_sweep ~config:(config ~cache_dir) scn)
  in
  let lambdas = Scenario.lambdas scn in
  let model, p99 =
    span "eval.model_columns" (fun () ->
        let ws = Scenario.evaluator scn in
        ( List.map (fun l -> (l, Eval.mean_into ws ~lambda_g:l)) lambdas,
          List.map (fun l -> (l, Eval.quantile ws ~lambda_g:l ~q:0.99)) lambdas ))
  in
  let sim project =
    List.concat
      (List.mapi
         (fun i l ->
           match outcome.Sweep_engine.results.(i) with
           | Some r -> [ (l, project r.Sweep_engine.summary) ]
           | None -> [])
         lambdas)
  in
  span "series.write_csv" (fun () ->
      Series.write_csv ~path:csv
        [
          Series.create ~name:"sim" ~points:(sim (fun s -> s.Summary.mean));
          Series.create ~name:"sim p99" ~points:(sim (fun s -> s.Summary.p99));
          Series.create ~name:"model" ~points:model;
          Series.create ~name:"model p99" ~points:p99;
        ]);
  (scn, outcome, model)

(* Untimed checks: every point answered, the model column equals a
   fresh Eval.mean_into, and a warm rerun on the same cache directory
   writes a byte-equal CSV from cache hits alone. *)
let check_figure ~scn_path ~cache_dir ~csv (scn, outcome, model) =
  let ph = phase "figure" in
  Array.iteri
    (fun i r -> check ph (r <> None) (fun () -> Printf.sprintf "point %d quarantined" i))
    outcome.Sweep_engine.results;
  let ws = Scenario.evaluator scn in
  List.iter
    (fun (l, v) ->
      check ph (same_bits v (Eval.mean_into ws ~lambda_g:l)) (fun () ->
          Printf.sprintf "model column at %g differs from Eval.mean_into" l))
    model;
  let ph = phase "warm_rerun" in
  let cold = read_file csv in
  let warm_csv = csv ^ ".warm" in
  let saved = !tracer in
  tracer := Trace.disabled;
  let _, warm, _ = figure ~scn_path ~cache_dir ~csv:warm_csv in
  tracer := saved;
  check ph (warm.Sweep_engine.stats.Sweep_engine.cache_hits = List.length model) (fun () ->
      "warm rerun recomputed points");
  check ph (read_file warm_csv = cold) (fun () -> "warm CSV differs from the cold CSV")

let run ~seed ~seconds ~traced =
  let scn_path = Filename.concat work_dir "fig5.scn" in
  (* Each pass simulates under its own seed drawn from the workload
     seed, so a run's median is not one seed's luck. *)
  let rng = Random.State.make [| seed; 3 |] in
  let write_pass_scn () =
    write_file scn_path
      (Scn.fig5 ~seed:(Random.State.bits rng) ~warmup ~measured ~drain)
  in
  (* Set-up — scenario load and first workspace — is sampled three
     times before every pass, so its median spans the whole run. *)
  let setups = ref [] in
  let pass ?(new_seed = true) i =
    if new_seed then write_pass_scn ();
    for _ = 1 to 3 do
      setups := snd (time (fun () -> ignore (Scenario.evaluator (load scn_path)))) :: !setups
    done;
    let cache_dir = Filename.concat work_dir (Printf.sprintf "cache-%d" i) in
    let csv = Filename.concat work_dir "fig5.csv" in
    rm_rf cache_dir;
    let r, dt = time (fun () -> span "bench.figure" (fun () -> figure ~scn_path ~cache_dir ~csv)) in
    check_figure ~scn_path ~cache_dir ~csv r;
    rm_rf cache_dir;
    (r, dt)
  in
  let points = 6 in
  if not traced then begin
    let times = ref [] in
    let t_end = now () +. seconds in
    while now () < t_end || List.length !times < 3 do
      times := snd (pass (List.length !times)) :: !times
    done;
    let n = List.length !times in
    {
      metrics =
        [
          ("setup_s", "s", median !setups);
          ("qps", "queries/s", float_of_int points /. median !times);
          ("latency_p50_ms", "ms", median !times *. 1e3);
          ("latency_p90_ms", "ms", quantile !times 0.9 *. 1e3);
          ("figure_s", "s", median !times);
          ("designs_per_s", "designs/s", 1. /. median !times);
          ("peak_rss_mb", "MB", vm_hwm_mb "self");
        ];
      info =
        [
          ("sweep_domains", Json.Num (float_of_int domains));
          ("figures", Json.Num (float_of_int n));
          ("points_per_figure", Json.Num (float_of_int points));
          ("protocol", Json.Str (Printf.sprintf "%d/%d/%d" warmup measured drain));
        ];
    }
  end
  else begin
    (* Untraced, traced, untraced again, all on the same `.scn` (same
       simulation seed, so the same events and replications): the
       tracing overhead compares like with like, and the untraced side
       is not only the process's first pass. *)
    let _, untraced_1 = pass 0 in
    tracer := Trace.create ();
    let (scn, outcome, _), traced_wall = pass ~new_seed:false 1 in
    let spans = Trace.spans !tracer in
    write_file (Filename.concat work_dir "figure_sweep.trace.json") (Trace.to_chrome_json !tracer);
    tracer := Trace.disabled;
    let _, untraced_2 = pass ~new_seed:false 2 in
    let untraced_wall = (untraced_1 +. untraced_2) /. 2. in
    let self, unattributed = rollup ~root:"bench.figure" spans in
    let st = outcome.Sweep_engine.stats in
    let points_busy = durations "point" spans in
    let sweep_wall = sum (durations "sweep" spans) in
    let sim_runs = List.filter (fun (s : Trace.span_record) -> s.name = "sim.run") spans in
    let events =
      List.fold_left
        (fun acc (s : Trace.span_record) ->
          acc + Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "events" s.attrs))
        0 sim_runs
    in
    let sim_busy = sum (durations "sim.run" spans) in
    (* The Runner and the model on the same middle point, on this
       domain: allocation per event and the estimator/simulation cost
       ratio. *)
    let mid = Scenario.at scn (List.nth (Scenario.lambdas scn) 2) in
    let lambda_mid = Scenario.require_lambda mid in
    let (res, bytes), t_sim = time (fun () -> alloc_bytes (fun () -> Runner.run_scenario mid)) in
    let lambdas = Scenario.lambdas scn in
    let ws = Scenario.evaluator scn in
    let (), t_model_mid =
      time (fun () ->
          ignore (Eval.mean_into ws ~lambda_g:lambda_mid);
          ignore (Eval.quantile ws ~lambda_g:lambda_mid ~q:0.99))
    in
    let evals =
      eval_costs scn ~means:(List.init 200 (fun i -> List.nth lambdas (i mod points))) ~quantiles:lambdas
    in
    let replications =
      Array.fold_left
        (fun acc r -> acc + Option.fold ~none:0 ~some:(fun r -> r.Sweep_engine.replications) r)
        0 outcome.Sweep_engine.results
    in
    {
      metrics =
        [
          ("sweep.occupancy_min", "ratio", Array.fold_left Float.min 1. st.Sweep_engine.occupancy);
          ("sweep.idle_s", "s", (float_of_int domains *. sweep_wall) -. sum points_busy);
          ("sweep.steals", "count", float_of_int st.Sweep_engine.steals);
          ("sim.events_per_s", "events/s", float_of_int events /. sim_busy);
          ("sim.alloc_bytes_per_event", "B", bytes /. float_of_int res.Runner.events);
          ("sim.point_s_max", "s", List.fold_left Float.max 0. points_busy);
          ("sim.replications", "count", float_of_int replications);
          ("cache.find_ms", "ms", median (durations "cache.find" spans) *. 1e3);
          ("cache.store_ms", "ms", median (durations "cache.store" spans) *. 1e3);
          ("scenario.load_ms", "ms", median (durations "scenario.load" spans) *. 1e3);
          ("model_vs_sim_cost_ratio", "ratio", t_model_mid /. t_sim);
          ("trace.unattributed_frac", "ratio", unattributed);
          ("trace.overhead_frac", "ratio", (traced_wall /. untraced_wall) -. 1.);
        ]
        @ evals
        @ layer_shares self;
      info =
        [
          ("sweep_domains", Json.Num (float_of_int domains));
          ("protocol", Json.Str (Printf.sprintf "%d/%d/%d" warmup measured drain));
          ("sim_runs_traced", Json.Num (float_of_int (List.length sim_runs)));
        ];
    }
  end
