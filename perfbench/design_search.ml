(* design_search: capacity-planning traffic.  A seeded family of
   candidate systems, each handed over as `.scn` text; per design the
   workspace is built, a cold saturation search runs, and mean latency
   is evaluated at a fixed grid of fractions of saturation through
   Eval.Pool (2 domains, no memo).  The only workload that pays a
   workspace build and a solver search per item.

   The family is stratified so a run's cost does not hinge on its seed:
   cluster counts cycle 4, 8, 16, 32 and alternate between designs
   built from 2–3 repeated cluster classes (like the paper's
   organizations) and designs whose clusters are all distinct (where a
   class-collapsed evaluator cannot help). *)

open Common
module Eval = Fatnet_model.Eval
module Scenario = Fatnet_scenario.Scenario
module Series = Fatnet_report.Series
module Metrics = Fatnet_obs.Metrics

let domains = 2
let grid = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 |]

(* Cluster counts, cycled; 16 twice so the per-design median falls
   inside one stratum rather than on a boundary between two. *)
let sizes = [| 4; 8; 16; 16; 32 |]

let family_size = 8 * Array.length sizes

type design = { text : string; classed : bool }

let net bw = Printf.sprintf "%.6g 0.01 0.02" bw

let design rng i =
  let n = Array.length sizes in
  let c = sizes.(i mod n) and classed = i / n mod 2 = 0 in
  let u lo hi = lo +. Random.State.float rng (hi -. lo) in
  (* The structure — cluster count, class count and sizes, tree depths
     2–4, message length — follows the design's index, so every seed
     gives a family of the same shape and cost; the seed draws the
     bandwidths. *)
  let depth_at j = 2 + ((i + j) mod 3) in
  let clusters =
    if classed then begin
      let k = 2 + (i / (2 * n) mod 2) in
      let counts = Array.init k (fun j -> (c / k) + if j < c mod k then 1 else 0) in
      Array.to_list
        (Array.mapi
           (fun j n ->
             Printf.sprintf "cluster*%d depth %d icn1 %s ecn1 %s" n (depth_at j)
               (net (u 400. 600.)) (net (u 200. 300.)))
           counts)
    end
    else
      List.init c (fun j ->
          (* strictly increasing bandwidths keep every cluster distinct *)
          let bw = 400. +. (200. *. (float_of_int j +. u 0. 0.9) /. float_of_int c) in
          Printf.sprintf "cluster depth %d icn1 %s ecn1 %s" (depth_at j) (net bw)
            (net (u 200. 300.)))
  in
  let icn2_depth = match c with 4 -> 1 | 8 -> 2 | 16 -> 3 | _ -> 4 in
  let system =
    String.concat "\n"
      ([ "m 4"; Printf.sprintf "icn2-depth %d" icn2_depth; "icn2 " ^ net (u 400. 800.) ] @ clusters)
  in
  let flits = [| 16; 32; 64 |].(i mod 3) in
  {
    text =
      Scn.render ~name:(Printf.sprintf "design%d" i) ~system ~flits ~seed:1 ~warmup:100
        ~measured:1000 ~drain:100 ~load:"linear 0.001 6";
    classed;
  }

let parse d = match Scenario.of_string d.text with
  | Error e -> failwith e
  | Ok s -> Scenario.validate_exn s; s

type answer = { scn : Scenario.t; sat : float; lambdas : float array; means : float array;
                seconds : float }

(* One design, fully answered: saturation plus the latency curve.  The
   saturation search counts its evaluations into [reg]. *)
let answer pool ~reg d =
  let t0 = now () in
  let scn = span "scenario.of_string" (fun () -> parse d) in
  let ws =
    span "eval.workspace" (fun () ->
        Eval.workspace ~variants:scn.Scenario.variants ~system:scn.Scenario.system
          ~message:scn.Scenario.message ())
  in
  let sat =
    span "solver.saturation_rate" (fun () ->
        Metrics.with_ambient reg (fun () -> Eval.saturation_rate ws))
  in
  let lambdas = Array.map (fun f -> f *. sat) grid in
  let means =
    span "pool.means" (fun () ->
        Eval.Pool.means pool ~variants:scn.Scenario.variants ~system:scn.Scenario.system
          ~message:scn.Scenario.message lambdas)
  in
  { scn; sat; lambdas; means; seconds = now () -. t0 }

(* The capacity-planning figure: saturation and the latency curve per
   design, as one CSV. *)
let write_figure answers =
  let path = Filename.concat work_dir "designs.csv" in
  let per f = List.mapi (fun i a -> (float_of_int i, f a)) answers in
  span "series.write_csv" (fun () ->
      Series.write_csv ~path
        (Series.create ~name:"saturation" ~points:(per (fun a -> a.sat))
        :: List.mapi
             (fun j f ->
               Series.create ~name:(Printf.sprintf "latency@%g" f) ~points:(per (fun a -> a.means.(j))))
             (Array.to_list grid)))

(* Untimed: the pool's answers equal a sequential Eval.mean_into loop.
   Returns, for the traced run, the sequential loop's workspace build
   time (the pool builds its own workspaces inside Eval.Pool.means) and
   its per-call times. *)
let check_design a =
  let ph = phase "design" in
  let scn = a.scn in
  let ws, t_ws =
    time (fun () ->
        Eval.workspace ~variants:scn.Scenario.variants ~system:scn.Scenario.system
          ~message:scn.Scenario.message ())
  in
  t_ws,
  Array.to_list
    (Array.mapi
       (fun j l ->
         let v, t = time (fun () -> Eval.mean_into ws ~lambda_g:l) in
         check ph (same_bits v a.means.(j)) (fun () ->
             Printf.sprintf "Eval.Pool.means differs from Eval.mean_into at %g" l);
         t)
       a.lambdas)

let run ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed; 4 |] in
  let family = Array.init family_size (design rng) in
  (* Set-up — load every design's `.scn` text and build its first
     workspace, what a planning session pays before its first answer —
     is sampled twice before every pass, so its median spans the run. *)
  let setups = ref [] in
  Eval.Pool.with_pool ~domains @@ fun pool ->
  let pass ?(reg = Metrics.disabled) () =
    for _ = 1 to 2 do
      setups :=
        snd (time (fun () -> Array.iter (fun d -> ignore (Scenario.evaluator (parse d))) family))
        :: !setups
    done;
    let answers, dt =
      time (fun () ->
          span "bench.design_search" (fun () ->
              let answers = List.map (answer pool ~reg) (Array.to_list family) in
              write_figure answers;
              answers))
    in
    (answers, List.map check_design answers, dt)
  in
  let grid_n = Array.length grid in
  if not traced then begin
    let passes = ref [] in
    let t_end = now () +. seconds in
    while now () < t_end || List.length !passes < 3 do
      let answers, _, dt = pass () in
      passes := (answers, dt) :: !passes
    done;
    (* Each pass is a measurement window; the metrics are medians
       across passes, so a stall on the shared host moves one pass. *)
    let times = List.map snd !passes in
    let per_pass f =
      median (List.map (fun (answers, dt) -> f (List.map (fun a -> a.seconds) answers) dt) !passes)
    in
    (* Each design's answer time is its median across passes; the
       latency metrics are quantiles of those over the family. *)
    let per_design =
      List.fold_left
        (fun acc (answers, _) -> List.map2 (fun a ts -> a.seconds :: ts) answers acc)
        (List.init family_size (fun _ -> []))
        !passes
      |> List.map median
    in
    let designs = family_size * List.length times in
    {
      metrics =
        [
          ("setup_s", "s", median !setups);
          ("qps", "queries/s", per_pass (fun _ dt -> float_of_int (family_size * grid_n) /. dt));
          ("latency_p50_ms", "ms", median per_design *. 1e3);
          ("latency_p90_ms", "ms", quantile per_design 0.9 *. 1e3);
          ("figure_s", "s", median times);
          ("designs_per_s", "designs/s", per_pass (fun _ dt -> float_of_int family_size /. dt));
          ("peak_rss_mb", "MB", vm_hwm_mb "self");
        ];
      info =
        [
          ("pool_domains", Json.Num (float_of_int domains));
          ("family_size", Json.Num (float_of_int family_size));
          ("passes", Json.Num (float_of_int (List.length times)));
          ("design_samples", Json.Num (float_of_int designs));
          ("grid_points", Json.Num (float_of_int grid_n));
        ];
    }
  end
  else begin
    let _, _, untraced_wall = pass () in
    tracer := Trace.create ();
    let reg = Metrics.create () in
    let answers, seq, traced_wall = pass ~reg () in
    let spans = Trace.spans !tracer in
    write_file (Filename.concat work_dir "design_search.trace.json") (Trace.to_chrome_json !tracer);
    tracer := Trace.disabled;
    let self, unattributed = rollup ~root:"bench.design_search" spans in
    let evals = counter reg "model_evaluations" in
    let calls = List.map snd seq in
    let half classed =
      List.concat
        (List.map2 (fun d ts -> if d.classed = classed then ts else []) (Array.to_list family) calls)
    in
    let quantiles, mean_allocs =
      List.split
        (List.map
           (fun a ->
             let ws = Scenario.evaluator a.scn in
             let l = a.lambdas.(4) in
             let (_, qb), qt =
               time (fun () -> alloc_bytes (fun () -> Eval.quantile ws ~lambda_g:l ~q:0.99))
             in
             let _, mb = alloc_bytes (fun () -> Eval.mean_into ws ~lambda_g:l) in
             ((qt, qb), mb))
           answers)
    in
    let pool_s = sum (durations "pool.means" spans) in
    (* Both sides build their workspaces and evaluate the same grid. *)
    let seq_s = sum (List.map (fun (t_ws, ts) -> t_ws +. sum ts) seq) in
    {
      metrics =
        [
          ("eval.mean_us", "us", median (List.concat calls) *. 1e6);
          ("eval.mean_us_classed", "us", median (half true) *. 1e6);
          ("eval.mean_us_distinct", "us", median (half false) *. 1e6);
          ("eval.quantile_us", "us", median (List.map fst quantiles) *. 1e6);
          ("eval.mean_alloc_bytes", "B", mean mean_allocs);
          ("eval.quantile_alloc_bytes", "B", mean (List.map snd quantiles));
          ("eval.workspace_build_us", "us", median (durations "eval.workspace" spans) *. 1e6);
          ("solver.saturation_ms", "ms", median (durations "solver.saturation_rate" spans) *. 1e3);
          ("solver.evals_per_search", "count", evals /. float_of_int family_size);
          ("pool.speedup", "ratio", seq_s /. pool_s);
          ("scenario.load_ms", "ms", median (durations "scenario.of_string" spans) *. 1e3);
          ("trace.unattributed_frac", "ratio", unattributed);
          ("trace.overhead_frac", "ratio", (traced_wall /. untraced_wall) -. 1.);
        ]
        @ layer_shares self;
      info =
        [
          ("pool_domains", Json.Num (float_of_int domains));
          ("family_size", Json.Num (float_of_int family_size));
          ("grid_points", Json.Num (float_of_int grid_n));
        ];
    }
  end
