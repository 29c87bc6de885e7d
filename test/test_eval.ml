(* The evaluation engine: bit-identity of the mean, the saturation
   rate, the component breakdown and the tail fit against the
   equation-literal reference in test/reference, warm-started
   saturation searches and their telemetry, and the multicore pool. *)

module P = Fatnet_model.Params
module V = Fatnet_model.Variants
module L = Reference_model.Latency
module Inter = Reference_model.Inter
module Eval = Fatnet_model.Eval
module Pattern = Fatnet_model.Pattern
module Tail = Fatnet_model.Tail
module Scenario = Fatnet_scenario.Scenario
module Presets = Fatnet_model.Presets
module Solver = Fatnet_numerics.Solver
module Metrics = Fatnet_obs.Metrics
module Memo = Fatnet_numerics.Memo
module Pool = Eval.Pool

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let small_system =
  P.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1 ~ecn1:Presets.net2
    ~icn2:Presets.net1

let bits = Int64.bits_of_float

let check_bits what expected actual =
  Alcotest.(check int64) (Printf.sprintf "%s: %h = %h" what expected actual)
    (bits expected) (bits actual)

(* ---- bit-identity: mean_into vs the reference Latency.mean ---- *)

let paper_orgs = [ ("org_544", Presets.org_544); ("org_1120", Presets.org_1120) ]

let golden_mean_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = L.saturation_rate ~system ~message () in
      (* A grid spanning light load through past saturation. *)
      List.iter
        (fun frac ->
          let lambda_g = frac *. sat in
          check_bits
            (Printf.sprintf "%s at %.2f x sat" name frac)
            (L.mean ~system ~message ~lambda_g ())
            (Eval.mean_into ws ~lambda_g))
        [ 0.; 0.05; 0.25; 0.5; 0.75; 0.9; 0.99; 1.01; 1.5 ])
    paper_orgs

let golden_variants_bit_identity () =
  let settings =
    [
      V.default;
      { V.default with V.lambda_i2 = V.Size_scaled };
      { V.default with V.source_variance = V.Zero };
      { V.default with V.source_rate = V.Network_total };
      { V.default with V.use_relaxing_factor = false };
    ]
  in
  List.iteri
    (fun k variants ->
      let ws = Eval.workspace ~variants ~system:Presets.org_544 ~message () in
      List.iter
        (fun lambda_g ->
          check_bits
            (Printf.sprintf "variant %d at %g" k lambda_g)
            (L.mean ~variants ~system:Presets.org_544 ~message ~lambda_g ())
            (Eval.mean_into ws ~lambda_g))
        [ 0.; 1e-5; 1e-4; 3e-4; 1e-3 ])
    settings

let golden_saturation_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      check_bits (name ^ " saturation")
        (L.saturation_rate ~system ~message ())
        (Eval.saturation_rate ws);
      (* The first stateful solve runs the same cold sequence. *)
      let state = Solver.bracket_state () in
      check_bits
        (name ^ " first warm-capable solve")
        (L.saturation_rate ~system ~message ())
        (Eval.saturation_rate ~state ws))
    paper_orgs

let single_cluster_bit_identity () =
  let system =
    P.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1 ~ecn1:Presets.net2
      ~icn2:Presets.net1
  in
  let ws = Eval.workspace ~system ~message () in
  List.iter
    (fun lambda_g ->
      check_bits
        (Printf.sprintf "single cluster at %g" lambda_g)
        (L.mean ~system ~message ~lambda_g ())
        (Eval.mean_into ws ~lambda_g))
    [ 0.; 1e-4; 1e-3; 1e-2; 1. ]

let pattern_bit_identity () =
  let pattern = Pattern.Local { p_local = 0.7 } in
  let outgoing cluster =
    Pattern.outgoing_probability pattern ~system:small_system ~cluster
  in
  let ws = Eval.workspace ~outgoing ~system:small_system ~message () in
  List.iter
    (fun lambda_g ->
      check_bits
        (Printf.sprintf "local pattern at %g" lambda_g)
        (L.mean ~outgoing ~system:small_system ~message ~lambda_g ())
        (Eval.mean_into ws ~lambda_g))
    [ 0.; 1e-4; 1e-3; 5e-3 ]

(* ---- QCheck: random systems, messages, variants, rates ---- *)

let gen_network =
  QCheck.Gen.(
    let* bw = float_range 50. 1000. in
    let* a_n = float_range 0. 0.1 in
    let* a_s = float_range 0. 0.1 in
    return { P.bandwidth = bw; network_latency = a_n; switch_latency = a_s })

let gen_case =
  QCheck.Gen.(
    let* m = oneofl [ 2; 4; 6; 8 ] in
    (* C = 2·(m/2)^n_c keeps the workspace small: n_c = 1, or 2 when
       the arity allows it without exploding the pair count. *)
    let* icn2_depth = if m <= 4 then return 1 else oneofl [ 1; 2 ] in
    let clusters = P.cluster_size ~m ~tree_depth:icn2_depth in
    let* depths = list_size (return clusters) (int_range 1 3) in
    let* icn2 = gen_network in
    let* nets = list_size (return (2 * clusters)) gen_network in
    let* m_flits = int_range 1 64 in
    let* flit_bytes = float_range 1. 512. in
    let* lambda_i2 = oneofl [ V.Pair_average; V.Size_scaled ] in
    let* source_variance = oneofl [ V.Draper_ghosh; V.Zero ] in
    let* source_rate = oneofl [ V.Per_node; V.Network_total ] in
    let* use_relaxing_factor = bool in
    let* lambda_scale = float_range 0. 2. in
    let cluster_params =
      List.mapi
        (fun i depth ->
          { P.tree_depth = depth; icn1 = List.nth nets (2 * i); ecn1 = List.nth nets ((2 * i) + 1) })
        depths
    in
    let system = P.make_system ~m ~icn2 ~icn2_depth cluster_params in
    let message = { P.length_flits = m_flits; flit_bytes } in
    let variants = { V.lambda_i2; source_variance; source_rate; use_relaxing_factor } in
    return (system, message, variants, lambda_scale))

let arb_case = QCheck.make gen_case

let qcheck_mean_bit_identity =
  QCheck.Test.make ~name:"Eval.mean_into equals Latency.mean to the bit" ~count:150
    arb_case
    (fun (system, message, variants, lambda_scale) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      (* Scale λ by the true saturation rate so the samples cover
         light load, heavy load and past-saturation alike. *)
      let sat = Eval.saturation_rate ws in
      let lambda_g = lambda_scale *. sat in
      let reference = L.mean ~variants ~system ~message ~lambda_g () in
      let fast = Eval.mean_into ws ~lambda_g in
      bits reference = bits fast)

let qcheck_saturation_bit_identity =
  QCheck.Test.make ~name:"Eval.saturation_rate equals Latency.saturation_rate to the bit"
    ~count:40 arb_case
    (fun (system, message, variants, _) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      bits (L.saturation_rate ~variants ~system ~message ())
      = bits (Eval.saturation_rate ws))

(* ---- bit-identity: breakdown, tail fit and quantiles ---- *)

(* Every field [Eval.breakdown] and [Eval.tail] report, against the
   reference evaluation and its tail fit; the names of the fields
   whose bits differ (empty when identical). *)
let walk_mismatches ?(variants = V.default) ?outgoing ~system ~message ~lambda_g ws =
  let bad = ref [] in
  let same what a b = if bits a <> bits b then bad := what :: !bad in
  let per_node = variants.V.source_rate = V.Per_node in
  let r = L.evaluate ~variants ?outgoing ~system ~message ~lambda_g () in
  let b = Eval.breakdown ws ~lambda_g in
  same "mean" r.L.mean_latency b.Eval.mean;
  List.iteri
    (fun i (rc : L.cluster_result) ->
      let c = b.Eval.clusters.(i) in
      let ri = rc.L.intra and ci = c.Eval.intra in
      let at what = Printf.sprintf "cluster %d %s" i what in
      if rc.L.nodes <> c.Eval.nodes then bad := at "nodes" :: !bad;
      same (at "u") rc.L.u c.Eval.u;
      same (at "intra network") ri.Reference_model.Intra.network ci.Eval.network;
      same (at "intra waiting") ri.Reference_model.Intra.waiting ci.Eval.waiting;
      same (at "intra tail") ri.Reference_model.Intra.tail ci.Eval.tail;
      same (at "intra source rate")
        (if per_node then lambda_g *. (1. -. rc.L.u) else ri.Reference_model.Intra.lambda_icn1)
        ci.Eval.source_rate;
      same (at "intra total") ri.Reference_model.Intra.total c.Eval.intra_total;
      same (at "combined") rc.L.combined c.Eval.combined;
      match rc.L.inter with
      | None ->
          if Array.length c.Eval.pairs <> 0 || not (Float.is_nan c.Eval.inter_total) then
            bad := at "single-cluster inter" :: !bad
      | Some ex ->
          same (at "inter total") ex.Inter.total c.Eval.inter_total;
          if List.length ex.Inter.pairs <> Array.length c.Eval.pairs then
            bad := at "pair count" :: !bad
          else
            List.iteri
              (fun k (p : Inter.pair_breakdown) ->
                let q = c.Eval.pairs.(k) in
                let at what = at (Printf.sprintf "pair %d %s" k what) in
                if p.Inter.dest <> q.Eval.dest then bad := at "dest" :: !bad;
                same (at "network") p.Inter.network q.Eval.network;
                same (at "waiting") p.Inter.waiting q.Eval.waiting;
                same (at "tail") p.Inter.tail q.Eval.tail;
                same (at "cd wait") p.Inter.cd_wait q.Eval.cd_wait;
                same (at "lambda_icn2") p.Inter.lambda_icn2 q.Eval.lambda_icn2;
                same (at "source rate")
                  (if per_node then lambda_g *. rc.L.u else p.Inter.lambda_ecn1)
                  q.Eval.source_rate)
              ex.Inter.pairs)
    r.L.clusters;
  let rt = Reference_model.of_latency ~variants ~system ~message ~lambda_g r in
  let t = Eval.tail ws ~lambda_g in
  same "tail mean" rt.Tail.mean t.Tail.mean;
  if List.length rt.Tail.components <> List.length t.Tail.components then
    bad := "component count" :: !bad
  else
    List.iteri
      (fun k ((a : Tail.component), (c : Tail.component)) ->
        let at what = Printf.sprintf "component %d %s" k what in
        same (at "weight") a.Tail.weight c.Tail.weight;
        same (at "floor") a.Tail.floor c.Tail.floor;
        same (at "wait_mean") a.Tail.wait_mean c.Tail.wait_mean;
        same (at "sigma") a.Tail.sigma c.Tail.sigma)
      (List.combine rt.Tail.components t.Tail.components);
  List.iter
    (fun q ->
      same (Printf.sprintf "quantile %g" q) (Tail.quantile rt q) (Eval.quantile ws ~lambda_g ~q))
    [ 0.5; 0.9; 0.99; 0.999 ];
  List.rev !bad

let check_walk what ?variants ?outgoing ~system ~message ~lambda_g ws =
  Alcotest.(check (list string))
    (what ^ ": breakdown, tail and quantiles")
    []
    (walk_mismatches ?variants ?outgoing ~system ~message ~lambda_g ws)

let golden_walk_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = Eval.saturation_rate ws in
      List.iter
        (fun frac ->
          check_walk
            (Printf.sprintf "%s at %.2f x sat" name frac)
            ~system ~message ~lambda_g:(frac *. sat) ws)
        [ 0.; 0.05; 0.5; 0.9; 0.99; 1.01; 1.5 ])
    paper_orgs

let single_cluster_walk_bit_identity () =
  let system =
    P.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1 ~ecn1:Presets.net2
      ~icn2:Presets.net1
  in
  let ws = Eval.workspace ~system ~message () in
  List.iter
    (fun lambda_g ->
      check_walk (Printf.sprintf "single cluster at %g" lambda_g) ~system ~message ~lambda_g ws)
    [ 0.; 1e-4; 1e-3; 1e-2; 1. ]

let pattern_walk_bit_identity () =
  let variants = { V.default with V.source_rate = V.Network_total; lambda_i2 = V.Size_scaled } in
  let outgoing cluster =
    Pattern.outgoing_probability (Pattern.Local { p_local = 0.7 }) ~system:small_system ~cluster
  in
  let ws = Eval.workspace ~variants ~outgoing ~system:small_system ~message () in
  List.iter
    (fun lambda_g ->
      check_walk
        (Printf.sprintf "local pattern at %g" lambda_g)
        ~variants ~outgoing ~system:small_system ~message ~lambda_g ws)
    [ 0.; 1e-4; 1e-3; 5e-3 ]

let qcheck_walk_bit_identity =
  QCheck.Test.make
    ~name:"Eval.breakdown, tail and quantile equal the reference to the bit" ~count:60
    QCheck.(pair arb_case (float_range 0. 1.))
    (fun ((system, message, variants, lambda_scale), p_local) ->
      (* Half the cases swap Eq. (2) for a local pattern. *)
      let outgoing =
        if p_local < 0.5 then None
        else
          Some
            (fun cluster ->
              Pattern.outgoing_probability (Pattern.Local { p_local }) ~system ~cluster)
      in
      let ws = Eval.workspace ~variants ?outgoing ~system ~message () in
      let lambda_g = 0.75 *. lambda_scale *. Eval.saturation_rate ws in
      match walk_mismatches ~variants ?outgoing ~system ~message ~lambda_g ws with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "mismatched: %s" (String.concat ", " bad))

(* ---- warm-started saturation searches ---- *)

let warm_matches_cold_and_records () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let ws = Eval.workspace ~system:Presets.org_544 ~message () in
  let cold = Eval.saturation_rate ws in
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "cold solve records no warm starts" 0 (count "solver_warm_starts");
  Alcotest.(check int) "cold solve records no bracket reuses" 0
    (count "solver_bracket_reuses");
  let state = Solver.bracket_state () in
  let first = Eval.saturation_rate ~state ws in
  check_bits "first stateful solve is the cold sequence" cold first;
  Alcotest.(check int) "still cold through a fresh state" 0 (count "solver_warm_starts");
  let iters_before = count "solver_boundary_iterations" in
  let warm = Eval.saturation_rate ~state ws in
  let iters_warm = count "solver_boundary_iterations" - iters_before in
  Alcotest.(check int) "second solve warm-started" 1 (count "solver_warm_starts");
  Alcotest.(check int) "previous bracket reused verbatim" 1 (count "solver_bracket_reuses");
  Alcotest.(check bool)
    (Printf.sprintf "warm agrees with cold (%h vs %h)" cold warm)
    true
    (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 cold warm);
  Alcotest.(check bool)
    (Printf.sprintf "warm bisection is nearly free (%d iterations)" iters_warm)
    true (iters_warm <= 2)

let warm_tracks_moving_root () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let state = Solver.bracket_state () in
  (* A family of slightly perturbed systems: the root drifts, the
     bracket follows. *)
  let rates =
    List.map
      (fun i ->
        let system =
          Presets.with_icn2_bandwidth_scaled Presets.org_544
            ~factor:(1. +. (0.01 *. float_of_int i))
        in
        let ws = Eval.workspace ~system ~message () in
        Eval.saturation_rate ~state ws)
      [ 0; 1; 2; 3; 4 ]
  in
  List.iteri
    (fun i rate ->
      let system =
        Presets.with_icn2_bandwidth_scaled Presets.org_544
          ~factor:(1. +. (0.01 *. float_of_int i))
      in
      let cold = L.saturation_rate ~system ~message () in
      Alcotest.(check bool)
        (Printf.sprintf "perturbation %d: warm %.9g vs cold %.9g" i rate cold)
        true
        (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 rate cold))
    rates;
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "four of five solves warm" 4 (count "solver_warm_starts")

let warm_counters_in_all_formats () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let ws = Eval.workspace ~system:small_system ~message () in
      let state = Solver.bracket_state () in
      ignore (Eval.saturation_rate ~state ws);
      ignore (Eval.saturation_rate ~state ws));
  let snap = Metrics.snapshot reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in json") true
        (contains (Metrics.Snapshot.to_json snap) name);
      Alcotest.(check bool) (name ^ " in prometheus") true
        (contains (Metrics.Snapshot.to_prometheus snap) name);
      Alcotest.(check bool) (name ^ " in table") true
        (contains (Fatnet_report.Metrics_report.render snap) name))
    [ "solver_warm_starts"; "solver_bracket_reuses" ]

let warm_repeat_reuses_bracket () =
  (* The design-search revisit pattern: a repeated system's root still
     sits inside the stored tol-tight bracket, so the repeat solve
     reuses it verbatim; a drifted system's root escapes it and the
     solver marches instead.  This is the genuine-reuse counterpart of
     [warm_tracks_moving_root] (which shows a strictly monotone family
     correctly reports zero reuses). *)
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let state = Solver.bracket_state () in
  List.iter
    (fun i ->
      let system =
        Presets.with_icn2_bandwidth_scaled Presets.org_544
          ~factor:(1. +. (0.01 *. float_of_int i))
      in
      let ws = Eval.workspace ~system ~message () in
      ignore (Eval.saturation_rate ~state ws);
      ignore (Eval.saturation_rate ~state ws))
    [ 0; 1 ];
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "three of four solves warm" 3 (count "solver_warm_starts");
  Alcotest.(check int) "each repeat reuses the stored bracket" 2
    (count "solver_bracket_reuses")

(* ---- multicore pool ---- *)

let pool_map_basics () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "domains" 3 (Pool.domains pool);
      let inputs = Array.init 20 Fun.id in
      let out = Pool.map pool ~f:(fun ctx x -> (x * x) + (0 * Pool.ctx_id ctx)) inputs in
      Alcotest.(check (array int)) "results at input indices"
        (Array.map (fun x -> x * x) inputs)
        out)

let pool_exceptions_propagate () =
  Pool.with_pool ~domains:2 (fun pool ->
      (match
         Pool.map pool
           ~f:(fun _ x -> if x = 5 then failwith "boom" else x)
           (Array.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg);
      (* The pool survives a failed batch. *)
      let out = Pool.map pool ~f:(fun _ x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "usable after failure" [| 2; 3; 4 |] out)

let pool_shutdown_semantics () =
  let pool = Pool.create ~domains:2 () in
  let out = Pool.map pool ~f:(fun _ x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "map works" [| 2; 3; 4 |] out;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.map pool ~f:(fun _ x -> x) [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let pool_nested_map_raises () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.map pool
          ~f:(fun _ _ -> ignore (Pool.map pool ~f:(fun _ x -> x) [| 1 |]))
          [| 0 |]
      with
      | _ -> Alcotest.fail "expected Invalid_argument from nested map"
      | exception Invalid_argument _ -> ())

let pool_nested_map_keeps_outer_failure () =
  (* A nested [map] must be refused without clearing the running
     batch's recorded exception: task 1 fails first, then task 0
     tries to re-enter the pool.  The outer batch must still re-raise
     task 1's exception, never trip on its empty result slot. *)
  Pool.with_pool ~domains:2 (fun pool ->
      for _ = 1 to 20 do
        let failed = Atomic.make false in
        match
          Pool.map pool
            ~f:(fun _ i ->
              if i = 1 then begin
                Atomic.set failed true;
                raise Exit
              end
              else begin
                while not (Atomic.get failed) do
                  Domain.cpu_relax ()
                done;
                Unix.sleepf 0.002;
                match Pool.map pool ~f:(fun _ x -> x) [| 1 |] with
                | _ -> Alcotest.fail "expected Invalid_argument from nested map"
                | exception Invalid_argument _ -> ()
              end)
            [| 0; 1 |]
        with
        | _ -> Alcotest.fail "expected Exit from the outer map"
        | exception Exit -> ()
      done)

let pool_means_match_sequential () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = Eval.saturation_rate ws in
      (* Shuffled order, light load, near-saturation, and diverged
         points alike. *)
      let lambdas =
        Array.of_list
          (List.map (fun f -> f *. sat) [ 0.9; 0.1; 1.2; 0.5; 0.; 0.99; 1.01; 0.7 ])
      in
      let expected = Array.map (fun lambda_g -> Eval.mean_into ws ~lambda_g) lambdas in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let got = Pool.means pool ~system ~message lambdas in
              Array.iteri
                (fun i v ->
                  check_bits
                    (Printf.sprintf "%s, %d domains, point %d" name domains i)
                    expected.(i) v)
                got))
        [ 1; 2; 4 ])
    paper_orgs

(* [cluster_model --sweep]'s grid on a scenario with non-default
   variants and a local pattern: every point is the scenario's own
   workspace, bit for bit, at any domain count. *)
let pool_sweep_matches_sequential () =
  let scn =
    Scenario.make ~system:small_system ~message
      ~variants:{ V.default with V.use_relaxing_factor = false; source_variance = V.Zero }
      ~pattern:(Fatnet_workload.Destination.Local { p_local = 0.9 })
      ~load:(Scenario.Fixed 1e-4) ()
  in
  let ws = Scenario.evaluator scn in
  List.iter
    (fun domains ->
      let points = Pool.with_pool ~domains (fun pool -> Scenario.model_sweep pool ~steps:7 scn) in
      Alcotest.(check int) "points" 7 (Array.length points);
      Array.iter
        (fun (lambda_g, latency) ->
          check_bits
            (Printf.sprintf "%d domains at %g" domains lambda_g)
            (Eval.mean_into ws ~lambda_g) latency)
        points)
    [ 1; 3 ];
  (* The scenario's variants and pattern reach the grid. *)
  let plain = Scenario.make ~system:small_system ~message ~load:(Scenario.Fixed 1e-4) () in
  let last s = snd (Pool.with_pool ~domains:1 (fun pool -> Scenario.model_sweep pool ~steps:3 s)).(2) in
  Alcotest.(check bool) "differs from the default scenario" true (last scn <> last plain)

let pool_saturation_rates () =
  let family =
    Array.init 5 (fun i ->
        Presets.with_icn2_bandwidth_scaled small_system
          ~factor:(1. +. (0.01 *. float_of_int i)))
  in
  let expected = Array.map (fun system -> L.saturation_rate ~system ~message ()) family in
  Pool.with_pool ~domains:2 (fun pool ->
      let cold = Pool.saturation_rates pool ~message family in
      Array.iteri
        (fun i v -> check_bits (Printf.sprintf "cold search %d" i) expected.(i) v)
        cold;
      let warm = Pool.saturation_rates pool ~warm:true ~message family in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "warm search %d: %.9g vs %.9g" i expected.(i) v)
            true
            (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 expected.(i) v))
        warm)

let pool_memo_counters_in_all_formats () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let memo = Memo.create ~metric:"model_memo" () in
      Pool.with_pool ~domains:2 (fun pool ->
          let lambdas = [| 1e-4; 2e-4; 3e-4 |] in
          ignore (Pool.means pool ~memo ~key:"fmt" ~system:small_system ~message lambdas);
          ignore (Pool.means pool ~memo ~key:"fmt" ~system:small_system ~message lambdas)));
  let snap = Metrics.snapshot reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in json") true
        (contains (Metrics.Snapshot.to_json snap) name);
      Alcotest.(check bool) (name ^ " in prometheus") true
        (contains (Metrics.Snapshot.to_prometheus snap) name);
      Alcotest.(check bool) (name ^ " in table") true
        (contains (Fatnet_report.Metrics_report.render snap) name))
    [ "model_memo_hits"; "model_memo_misses"; "pool_domain_occupancy" ]

(* Satellite 3: the parallel engine is bit-identical to the
   sequential loop for any domain count and any λ order, memo on or
   off, hit or miss — random heterogeneous systems included. *)
let gen_pool_case =
  QCheck.Gen.(
    let* system, message, variants, _ = gen_case in
    let* scales = list_size (int_range 1 24) (float_range 0. 2.) in
    return (system, message, variants, scales))

let qcheck_pool_bit_identity =
  QCheck.Test.make
    ~name:"Pool.means equals the sequential loop to the bit (domains 1/2/4/8)"
    ~count:15 (QCheck.make gen_pool_case)
    (fun (system, message, variants, scales) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      let sat = Eval.saturation_rate ws in
      let lambdas = Array.of_list (List.map (fun s -> s *. sat) scales) in
      let expected = Array.map (fun lambda_g -> Eval.mean_into ws ~lambda_g) lambdas in
      let same got =
        Array.length got = Array.length expected
        && Array.for_all2 (fun a b -> bits a = bits b) expected got
      in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let plain = Pool.means pool ~variants ~system ~message lambdas in
              let memo = Memo.create () in
              let cold = Pool.means pool ~memo ~key:"case" ~variants ~system ~message lambdas in
              let warm = Pool.means pool ~memo ~key:"case" ~variants ~system ~message lambdas in
              same plain && same cold && same warm))
        [ 1; 2; 4; 8 ])

(* ---- allocation discipline ---- *)

let mean_into_is_allocation_free () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()  (* bytecode boxes everything *)
  | Sys.Native ->
      let ws = Eval.workspace ~system:Presets.org_544 ~message () in
      (* Warm up: fault in any lazy state. *)
      ignore (Eval.mean_into ws ~lambda_g:1e-4);
      let n = 1000 in
      let before = Gc.allocated_bytes () in
      for _ = 1 to n do
        ignore (Eval.mean_into ws ~lambda_g:1e-4)
      done;
      let per_eval = (Gc.allocated_bytes () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bytes per eval %.1f <= 64" per_eval)
        true (per_eval <= 64.)

let () =
  Alcotest.run "eval"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "paper organizations" `Quick golden_mean_bit_identity;
          Alcotest.test_case "all variant settings" `Quick golden_variants_bit_identity;
          Alcotest.test_case "saturation rates" `Quick golden_saturation_bit_identity;
          Alcotest.test_case "single cluster" `Quick single_cluster_bit_identity;
          Alcotest.test_case "local traffic pattern" `Quick pattern_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_mean_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_saturation_bit_identity;
          Alcotest.test_case "breakdown and tail, paper organizations" `Quick
            golden_walk_bit_identity;
          Alcotest.test_case "breakdown and tail, single cluster" `Quick
            single_cluster_walk_bit_identity;
          Alcotest.test_case "breakdown and tail, local pattern" `Quick
            pattern_walk_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_walk_bit_identity;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "warm matches cold, counters recorded" `Quick
            warm_matches_cold_and_records;
          Alcotest.test_case "bracket follows a drifting root" `Quick
            warm_tracks_moving_root;
          Alcotest.test_case "revisited system reuses its bracket" `Quick
            warm_repeat_reuses_bracket;
          Alcotest.test_case "counters in all three formats" `Quick
            warm_counters_in_all_formats;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map basics" `Quick pool_map_basics;
          Alcotest.test_case "exceptions propagate" `Quick pool_exceptions_propagate;
          Alcotest.test_case "shutdown semantics" `Quick pool_shutdown_semantics;
          Alcotest.test_case "nested map raises" `Quick pool_nested_map_raises;
          Alcotest.test_case "nested map keeps outer failure" `Quick
            pool_nested_map_keeps_outer_failure;
          Alcotest.test_case "means match sequential" `Quick pool_means_match_sequential;
          Alcotest.test_case "pooled sweep matches sequential" `Quick
            pool_sweep_matches_sequential;
          Alcotest.test_case "saturation rates" `Quick pool_saturation_rates;
          Alcotest.test_case "memo and occupancy in all formats" `Quick
            pool_memo_counters_in_all_formats;
          QCheck_alcotest.to_alcotest qcheck_pool_bit_identity;
        ] );
      ( "allocation",
        [ Alcotest.test_case "mean_into allocation-free" `Quick mean_into_is_allocation_free ] );
    ]
