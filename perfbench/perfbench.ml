(* fatnet's end-to-end benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see BENCHMARK.json and perfbench/README.md),
   checks every answer it gets, and prints as its last stdout line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1.  The line
   before it is a report with the provenance (host, seed, sample
   counts) and the attempted/failed count of every phase. *)

open Common

let end_to_end =
  [
    ("setup_s", "s"); ("qps", "queries/s"); ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("figure_s", "s"); ("designs_per_s", "designs/s");
    ("peak_rss_mb", "MB");
  ]

let layers =
  [ "protocol"; "oracle"; "eval"; "solver"; "pool"; "scenario"; "sweep"; "sim"; "cache"; "series" ]

let per_layer =
  [
    ("server.overhead_us_p50", "us"); ("server.batch_size_mean", "requests");
    ("server.slo_qps", "queries/s");
    ("protocol.parse_ns_per_req", "ns"); ("protocol.encode_ns_per_req", "ns");
    ("oracle.answer_us_per_req", "us"); ("memo.hit_ratio", "ratio"); ("memo.evictions", "count");
    ("eval.mean_us", "us"); ("eval.quantile_us", "us"); ("eval.mean_alloc_bytes", "B");
    ("eval.quantile_alloc_bytes", "B"); ("eval.workspace_build_us", "us");
    ("eval.mean_us_classed", "us"); ("eval.mean_us_distinct", "us");
    ("solver.saturation_ms", "ms"); ("solver.evals_per_search", "count");
    ("pool.speedup", "ratio"); ("sweep.occupancy_min", "ratio"); ("sweep.idle_s", "s");
    ("sweep.steals", "count"); ("sim.events_per_s", "events/s");
    ("sim.alloc_bytes_per_event", "B"); ("sim.point_s_max", "s"); ("sim.replications", "count");
    ("cache.find_ms", "ms"); ("cache.store_ms", "ms"); ("scenario.load_ms", "ms");
    ("model_vs_sim_cost_ratio", "ratio"); ("trace.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]
  @ List.map (fun l -> ("layer_share." ^ l, "ratio")) layers

let workloads = [ "oracle_cold"; "oracle_warm"; "figure_sweep"; "design_search" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload oracle_cold|oracle_warm|figure_sweep|design_search --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.mem !workload workloads, !seed, !seconds, !trace) with
  | true, Some seed, Some s, Some t when s > 0. -> (!workload, seed, s, t)
  | _ -> usage ()

let () =
  let workload, seed, seconds, traced = parse_args () in
  let stop = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop;
  (* A daemon that dies mid-write must read as a dropped connection. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists Wire.fatnet_exe) then failwith (Wire.fatnet_exe ^ " is not built");
  ensure_dir work_dir;
  let r =
    try
      match workload with
      | "oracle_cold" -> Oracle_load.run ~cold:true ~seed ~seconds ~traced
      | "oracle_warm" -> Oracle_load.run ~cold:false ~seed ~seconds ~traced
      | "figure_sweep" -> Figure_sweep.run ~seed ~seconds ~traced
      | _ -> Design_search.run ~seed ~seconds ~traced
    with e ->
      (* A phase that cannot go on (a refused connection, a daemon that
         died) is a failed operation; the run still reports. *)
      check (phase "aborted") false (fun () -> Printexc.to_string e);
      { metrics = []; info = [] }
  in
  let wanted = if traced then per_layer else end_to_end in
  let finite = ref true in
  let not_on_path = ref [] in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
          | Some (_, _, v) -> v
          | None ->
              (* A layer this workload does not reach reads 0. *)
              not_on_path := Json.Str name :: !not_on_path;
              0.
        in
        let ok = Float.is_finite v && (traced || v > 0.) in
        if not ok then begin
          finite := false;
          Printf.eprintf "perfbench: metric %s is %g\n%!" name v
        end;
        (name, Json.Obj [ ("value", Json.Num (if ok then v else 0.)); ("unit", Json.Str unit_) ]))
      wanted
  in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 !phases in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 !phases in
  let report =
    Json.Obj
      [
        ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds); ("trace", Json.Bool traced); ("host", Json.Obj (host ()));
        ( "phases",
          Json.Arr
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("phase", Json.Str p.name);
                     ("attempted", Json.Num (float_of_int p.attempted));
                     ("succeeded", Json.Num (float_of_int (p.attempted - p.failed)));
                     ("failed", Json.Num (float_of_int p.failed));
                   ])
               !phases) );
        ("first_failures", Json.Arr (List.rev_map (fun s -> Json.Str s) !first_failures));
        ("not_on_path", Json.Arr (List.rev !not_on_path));
        ("info", Json.Obj r.info);
      ]
  in
  let report = json_to_string report in
  write_file (Filename.concat work_dir (Printf.sprintf "%s.trace%d.report.json" workload
    (Bool.to_int traced))) report;
  print_endline report;
  print_endline
    (json_to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && !finite && attempted > 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]))
