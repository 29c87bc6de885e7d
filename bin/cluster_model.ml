(* Evaluate the analytical model from the command line.

   `cluster_model --scenario examples/fig3.scn --lambda 1e-4`
   `cluster_model --org 1120 --m-flits 32 --flit-bytes 256 --lambda 1e-4`
   `cluster_model --org 544 --sweep --steps 10`
   `cluster_model --clusters 4 --depth 2 --arity 4 --saturation` *)

module Params = Fatnet_model.Params
module Eval = Fatnet_model.Eval
module Scenario = Fatnet_scenario.Scenario
module Cli = Fatnet_cli.Cli
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Table = Fatnet_report.Table

let print_breakdown (scn : Scenario.t) =
  let lambda_g = Scenario.require_lambda scn in
  let b = Eval.breakdown (Scenario.evaluator scn) ~lambda_g in
  Printf.printf "mean latency at λ_g=%g: %g\n\n" lambda_g b.Eval.mean;
  let table =
    Table.create
      ~columns:[ "cluster"; "N_i"; "U_i"; "L_in"; "W_in"; "T_in"; "E_in"; "L_out"; "combined" ]
  in
  Array.iteri
    (fun k (c : Eval.cluster) ->
      let i = c.Eval.intra in
      Table.add_row table
        ([ string_of_int k; string_of_int c.Eval.nodes; Printf.sprintf "%.4f" c.Eval.u ]
        @ List.map
            (fun x -> if Float.is_finite x then Printf.sprintf "%.5g" x else "sat.")
            [
              c.Eval.intra_total;
              i.Eval.waiting;
              i.Eval.network;
              i.Eval.tail;
              c.Eval.inter_total;
              c.Eval.combined;
            ]))
    b.Eval.clusters;
  Table.print table

let run scenario system message lambda sweep steps saturation domains mopts topts =
  Cli.guard @@ fun () ->
  let ( let* ) = Result.bind in
  let default_load = Scenario.Fixed (Option.value lambda ~default:1e-4) in
  let* domains = Cli.resolve_domains domains in
  let* scn = Cli.resolve ~default_load ~scenario ~system ~message () in
  let scn = match lambda with Some l -> Scenario.at scn l | None -> scn in
  Format.printf "system: @[%a@]@.@." Params.pp_system scn.Scenario.system;
  let sys = scn.Scenario.system and msg = scn.Scenario.message in
  let metrics = Cli.metrics_registry mopts in
  Metrics.set_meta metrics "command" "cluster_model";
  Option.iter (Metrics.set_meta metrics "scenario") scenario;
  let tracer = Cli.tracer_of_opts topts in
  (* The model and solver record through the ambient registry and
     trace, so running the evaluation under [with_ambient] is the
     whole hookup. *)
  Metrics.with_ambient metrics @@ fun () ->
  Trace.with_ambient tracer @@ fun () ->
  (* The root span closes before the exports below, so the written
     trace contains it. *)
  Trace.in_span tracer "model.run" (fun _ ->
  if saturation then begin
    let sat = Scenario.saturation_rate scn in
    Printf.printf "saturation rate: λ_g = %g\n" sat;
    let b =
      Fatnet_model.Utilization.bottleneck ~variants:scn.Scenario.variants ~system:sys
        ~message:msg ()
    in
    Format.printf "binding resource: %a (ρ = 1 at λ_g = %.4g)@."
      Fatnet_model.Utilization.pp_resource b.Fatnet_model.Utilization.resource
      b.Fatnet_model.Utilization.saturates_at
  end;
  if sweep then begin
    (* Grid evaluation of the scenario's own workspace on the model's
       domain pool; bit-identical at any [--domains] value. *)
    let points = Eval.Pool.with_pool ~domains (fun pool -> Scenario.model_sweep pool ~steps scn) in
    let table = Table.create ~columns:[ "lambda_g"; "mean latency" ] in
    Array.iter (fun (l, latency) -> Table.add_float_row table [ l; latency ]) points;
    Table.print table;
    Fatnet_report.Ascii_plot.print ~height:14
      [
        Fatnet_report.Series.create ~name:"mean latency"
          ~points:(List.filter (fun (_, l) -> Float.is_finite l) (Array.to_list points));
      ]
  end
  else if not saturation then print_breakdown scn);
  Cli.write_metrics mopts metrics;
  Cli.write_trace topts tracer;
  Ok 0

open Cmdliner

let lambda =
  Arg.(
    value
    & opt (some float) None
    & info [ "lambda" ] ~doc:"Traffic generation rate λ_g (default 1e-4).")

let sweep = Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep λ_g up to saturation.")
let steps = Arg.(value & opt int 12 & info [ "steps" ] ~doc:"Sweep points.")

let saturation =
  Arg.(value & flag & info [ "saturation" ] ~doc:"Print the model's saturation rate.")

let () =
  let term =
    Term.(
      const run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts $ lambda $ sweep
      $ steps $ saturation $ Cli.domains_arg $ Cli.metrics_opts $ Cli.trace_opts)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "cluster_model" ~doc:"Analytical latency model") term))
