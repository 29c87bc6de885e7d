(* The paper's equation-literal model (Eqs. 1-39), kept as a test-only
   oracle.  Each equation is written the way the paper states it:
   distance distributions folded per call, Eq. (14)'s stage array
   built per journey, the M/G/1 waits through [Fatnet_queueing.Mg1].
   The production engine, [Fatnet_model.Eval], hoists all of that into
   a workspace and walks the stages scalar-for-scalar; the bit-identity
   properties in test_eval.ml and bench/main.ml's model bench pin the
   two together. *)

open Fatnet_model

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

module Intra = struct
  type breakdown = {
    lambda_icn1 : float;
    eta_icn1 : float;
    mean_distance : float;
    network : float;
    waiting : float;
    tail : float;
    total : float;
  }

  let network_latency_for_hops ~eta ~t_cn ~t_cs ~message_flits ~h =
    if h < 1 then invalid_arg "Intra.network_latency_for_hops: h >= 1";
    let m = float_of_int message_flits in
    let stages = (2 * h) - 1 in
    let times =
      Fatnet_queueing.Blocking.stage_service_times ~final:(m *. t_cn)
        ~internal:(fun _ -> m *. t_cs)
        ~eta:(fun _ -> eta)
        ~stages
    in
    times.(0)

  let evaluate ?(variants = Variants.default) ~(system : Params.system)
      ~(message : Params.message) ~lambda_g ~cluster ~u () =
    if lambda_g < 0. then invalid_arg "Intra.evaluate: negative lambda_g";
    if u < 0. || u > 1. then invalid_arg "Intra.evaluate: u out of [0,1]";
    let c = system.Params.clusters.(cluster) in
    let n_i = c.Params.tree_depth in
    let nodes = Params.cluster_nodes system cluster in
    let dist = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_i in
    let t_cn = Service_time.t_cn c.Params.icn1 ~message in
    let t_cs = Service_time.t_cs c.Params.icn1 ~message in
    (* Eq. (7): total rate offered to ICN1(i). *)
    let lambda_icn1 = float_of_int nodes *. lambda_g *. (1. -. u) in
    (* Eq. (10) via the distance distribution. *)
    let eta_icn1 = Fatnet_topology.Distance.channel_rate dist ~lambda:lambda_icn1 in
    (* Eq. (5): probability-weighted head latency. *)
    let network =
      Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
          acc
          +. p
             *. network_latency_for_hops ~eta:eta_icn1 ~t_cn ~t_cs
                  ~message_flits:message.Params.length_flits ~h)
    in
    (* Eq. (19): tail-flit drain time. *)
    let tail =
      Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
          acc +. (p *. ((2. *. float_of_int (h - 1) *. t_cs) +. t_cn)))
    in
    (* Eqs. (15)–(18): M/G/1 source queue with the Draper–Ghosh
       variance approximation. *)
    let min_service = Service_time.message_time t_cn ~message in
    let variance =
      match variants.Variants.source_variance with
      | Variants.Draper_ghosh -> Fatnet_numerics.Float_utils.square (network -. min_service)
      | Variants.Zero -> 0.
    in
    let source_lambda =
      match variants.Variants.source_rate with
      | Variants.Per_node -> lambda_g *. (1. -. u)
      | Variants.Network_total -> lambda_icn1
    in
    let waiting =
      Fatnet_queueing.Mg1.waiting_time ~lambda:source_lambda
        ~service:{ Fatnet_queueing.Mg1.mean = network; variance }
    in
    {
      lambda_icn1;
      eta_icn1;
      mean_distance = Fatnet_topology.Distance.mean_links dist;
      network;
      waiting;
      tail;
      total = waiting +. network +. tail;
    }
end

module Inter = struct
  type pair_breakdown = {
    dest : int;
    lambda_ecn1 : float;
    lambda_icn2 : float;
    eta_ecn1 : float;
    eta_icn2 : float;
    network : float;
    waiting : float;
    tail : float;
    cd_wait : float;
    latency : float;
  }

  type breakdown = {
    l_ex : float;
    w_d : float;
    total : float;
    pairs : pair_breakdown list;
  }

  (* Head-flit latency of one (r, v, l) journey: K = r + v + 2l - 1
     stages, ECN1(i) for stages [0, r), ICN2 for [r, r + 2l - 1),
     ECN1(j) for the rest; the final stage is the switch-to-node hop in
     cluster j (Eqs. 26-30). *)
  let journey_latency ~message_flits ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j ~eta_ecn1
      ~eta_icn2_relaxed =
    let m = float_of_int message_flits in
    let stages = r + v + (2 * l) - 1 in
    let icn2_end = r + (2 * l) - 1 in
    let internal k = if k < r then m *. t_cs_e_i else if k < icn2_end then m *. t_cs_i2 else m *. t_cs_e_j in
    let eta k = if k >= r && k < icn2_end then eta_icn2_relaxed else eta_ecn1 in
    let times =
      Fatnet_queueing.Blocking.stage_service_times ~final:(m *. t_cn_e_j) ~internal ~eta ~stages
    in
    times.(0)

  (* Eq. (34): tail-flit drain of one (r, v, l) journey. *)
  let journey_tail ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j =
    (float_of_int (r - 1) *. t_cs_e_i)
    +. (float_of_int (v - 1) *. t_cs_e_j)
    +. (2. *. float_of_int l *. t_cs_i2)
    +. t_cn_e_j

  let evaluate ?(variants = Variants.default) ~(system : Params.system)
      ~(message : Params.message) ~lambda_g ~cluster ~u () =
    if lambda_g < 0. then invalid_arg "Inter.evaluate: negative lambda_g";
    let c_count = Params.cluster_count system in
    if c_count < 2 then invalid_arg "Inter.evaluate: needs at least two clusters";
    let m_flits = message.Params.length_flits in
    let src = system.Params.clusters.(cluster) in
    let n_i = src.Params.tree_depth in
    let nodes_i = Params.cluster_nodes system cluster in
    let dist_i = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_i in
    let dist_c = Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth in
    let t_cs_e_i = Service_time.t_cs src.Params.ecn1 ~message in
    let t_cn_e_i = Service_time.t_cn src.Params.ecn1 ~message in
    let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
    let delta =
      if variants.Variants.use_relaxing_factor then
        Service_time.relaxing_factor ~ecn1:src.Params.ecn1 ~icn2:system.Params.icn2
      else 1.
    in
    let u_i = u cluster in
    let pair j =
      let dst = system.Params.clusters.(j) in
      let n_j = dst.Params.tree_depth in
      let nodes_j = Params.cluster_nodes system j in
      let dist_j = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_j in
      let t_cs_e_j = Service_time.t_cs dst.Params.ecn1 ~message in
      let t_cn_e_j = Service_time.t_cn dst.Params.ecn1 ~message in
      let u_j = u j in
      (* Eq. (22): traffic carried by the ECN1 pipeline for this pair. *)
      let outgoing_i = float_of_int nodes_i *. u_i and outgoing_j = float_of_int nodes_j *. u_j in
      let lambda_ecn1 = lambda_g *. (outgoing_i +. outgoing_j) in
      (* Eq. (23): per-C/D rate offered to ICN2, per the variant. *)
      let lambda_icn2 =
        match variants.Variants.lambda_i2 with
        | Variants.Pair_average -> lambda_g *. (outgoing_i +. outgoing_j) /. 2.
        | Variants.Size_scaled ->
            lambda_g
            *. (outgoing_i +. outgoing_j)
            *. float_of_int (nodes_i + nodes_j)
            /. (2. *. float_of_int nodes_i *. float_of_int nodes_j)
      in
      (* Eqs. (24)-(25): per-channel rates. *)
      let eta_ecn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_ecn1 in
      let eta_icn2 =
        lambda_icn2
        *. Fatnet_topology.Distance.mean_links dist_c
        /. (4. *. float_of_int system.Params.icn2_depth)
      in
      let eta_icn2_relaxed = eta_icn2 *. delta in
      (* Eqs. (20)-(21): probability-weighted merged-pipeline latency. *)
      let network = ref 0. and tail = ref 0. in
      Fatnet_topology.Distance.fold dist_i ~init:() ~f:(fun () ~h:r ~p:p_r ->
          Fatnet_topology.Distance.fold dist_j ~init:() ~f:(fun () ~h:v ~p:p_v ->
              Fatnet_topology.Distance.fold dist_c ~init:() ~f:(fun () ~h:l ~p:p_l ->
                  let p = p_r *. p_v *. p_l in
                  network :=
                    !network
                    +. p
                       *. journey_latency ~message_flits:m_flits ~r ~v ~l ~t_cs_e_i ~t_cs_i2
                            ~t_cs_e_j ~t_cn_e_j ~eta_ecn1 ~eta_icn2_relaxed;
                  tail :=
                    !tail +. (p *. journey_tail ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j))));
      let network = !network and tail = !tail in
      (* Eq. (31): M/G/1 source queue for the egress path; the minimum
         service is the node-to-switch hop in ECN1(i) (Eq. 17's
         analogue). *)
      let min_service = Service_time.message_time t_cn_e_i ~message in
      let variance =
        match variants.Variants.source_variance with
        | Variants.Draper_ghosh -> Fatnet_numerics.Float_utils.square (network -. min_service)
        | Variants.Zero -> 0.
      in
      let source_lambda =
        match variants.Variants.source_rate with
        | Variants.Per_node -> lambda_g *. u_i
        | Variants.Network_total -> lambda_ecn1
      in
      let waiting =
        Fatnet_queueing.Mg1.waiting_time ~lambda:source_lambda
          ~service:{ Fatnet_queueing.Mg1.mean = network; variance }
      in
      (* Eqs. (36)-(37): concentrator and dispatcher buffers, each an
         M/G/1 queue with service M·t_cs(ICN2) and Draper-Ghosh-style
         variance from the network mismatch. *)
      let cd_service = Service_time.message_time t_cs_i2 ~message in
      let cd_variance =
        Fatnet_numerics.Float_utils.square
          (cd_service -. Service_time.message_time t_cs_e_i ~message)
      in
      let cd_one =
        Fatnet_queueing.Mg1.waiting_time ~lambda:lambda_icn2
          ~service:{ Fatnet_queueing.Mg1.mean = cd_service; variance = cd_variance }
      in
      let cd_wait = 2. *. cd_one in
      {
        dest = j;
        lambda_ecn1;
        lambda_icn2;
        eta_ecn1;
        eta_icn2;
        network;
        waiting;
        tail;
        cd_wait;
        latency = waiting +. network +. tail;
      }
    in
    (* Destinations ascending, skipping the source — as an array, so
       the Eq. (35)/(38) sums run through [Float_utils.sum_array]
       (same left-to-right association as the list folds they replace,
       hence the same bits) without the init/filter/map list chain. *)
    let pair_arr = Array.init (c_count - 1) (fun k -> pair (if k < cluster then k else k + 1)) in
    let count = float_of_int (c_count - 1) in
    (* Eqs. (35), (38), (39). *)
    let l_ex =
      Fatnet_numerics.Float_utils.sum_array (Array.map (fun p -> p.latency) pair_arr) /. count
    in
    let w_d =
      Fatnet_numerics.Float_utils.sum_array (Array.map (fun p -> p.cd_wait) pair_arr) /. count
    in
    { l_ex; w_d; total = l_ex +. w_d; pairs = Array.to_list pair_arr }
end

module Latency = struct
  type cluster_result = {
    cluster : int;
    nodes : int;
    u : float;
    intra : Intra.breakdown;
    inter : Inter.breakdown option;
    combined : float;
  }

  type t = { mean_latency : float; clusters : cluster_result list }

  let outgoing_probability ~system ~cluster =
    let total = Params.total_nodes system in
    let nodes = Params.cluster_nodes system cluster in
    if total <= 1 then 0.
    else 1. -. (float_of_int (nodes - 1) /. float_of_int (total - 1))

  let evaluate ?(variants = Variants.default) ?outgoing ~system ~message ~lambda_g () =
    Params.validate_exn system;
    let c_count = Params.cluster_count system in
    let u =
      match outgoing with
      | Some f -> f
      | None -> fun k -> outgoing_probability ~system ~cluster:k
    in
    let cluster_result i =
      let u_i = u i in
      let intra = Intra.evaluate ~variants ~system ~message ~lambda_g ~cluster:i ~u:u_i () in
      let inter =
        if c_count < 2 then None
        else Some (Inter.evaluate ~variants ~system ~message ~lambda_g ~cluster:i ~u ())
      in
      let combined =
        match inter with
        | None -> intra.Intra.total
        | Some ex -> (u_i *. ex.Inter.total) +. ((1. -. u_i) *. intra.Intra.total)
      in
      { cluster = i; nodes = Params.cluster_nodes system i; u = u_i; intra; inter; combined }
    in
    let clusters = List.init c_count cluster_result in
    let total_nodes = float_of_int (Params.total_nodes system) in
    let mean_latency =
      List.fold_left
        (fun acc r -> acc +. (float_of_int r.nodes /. total_nodes *. r.combined))
        0. clusters
    in
    { mean_latency; clusters }

  let mean ?variants ?outgoing ~system ~message ~lambda_g () =
    (evaluate ?variants ?outgoing ~system ~message ~lambda_g ()).mean_latency

  let is_saturated ?variants ~system ~message ~lambda_g () =
    let l = mean ?variants ~system ~message ~lambda_g () in
    not (Fatnet_numerics.Float_utils.is_finite l)

  let saturation_rate ?variants ?(tol = 1e-9) ~system ~message () =
    let saturated lambda_g = is_saturated ?variants ~system ~message ~lambda_g () in
    let hi = Fatnet_numerics.Solver.find_upper_bracket ~f:saturated ~lo:1e-9 () in
    if hi <= 1e-9 then hi else Fatnet_numerics.Solver.boundary ~tol ~pred:saturated ~lo:0. ~hi ()
end

(* The Tail mixture fitted from a reference evaluation. *)
let of_latency ?(variants = Variants.default) ~(system : Params.system)
    ~(message : Params.message) ~lambda_g (l : Latency.t) =
  let total_nodes = float_of_int (Params.total_nodes system) in
  let cd_service = Service_time.message_time (Service_time.t_cs system.Params.icn2 ~message) ~message in
  let components =
    List.concat_map
      (fun (r : Latency.cluster_result) ->
        let node_share = float_of_int r.Latency.nodes /. total_nodes in
        let intra = r.Latency.intra in
        (* Eq. (15)'s source queue: rho recovers exactly the
           utilization Mg1.waiting_time saw (service mean = the
           network latency, arrival rate per the source-rate
           variant). *)
        let intra_lambda =
          match variants.Variants.source_rate with
          | Variants.Per_node -> lambda_g *. (1. -. r.Latency.u)
          | Variants.Network_total -> intra.Intra.lambda_icn1
        in
        let intra_c =
          {
            Tail.weight = node_share *. (1. -. r.Latency.u);
            floor = intra.Intra.network +. intra.Intra.tail;
            wait_mean = intra.Intra.waiting;
            sigma = clamp01 (intra_lambda *. intra.Intra.network);
          }
        in
        let inter_cs =
          match r.Latency.inter with
          | None -> []
          | Some ex ->
              let pair_count = float_of_int (List.length ex.Inter.pairs) in
              List.map
                (fun (p : Inter.pair_breakdown) ->
                  let src_lambda =
                    match variants.Variants.source_rate with
                    | Variants.Per_node -> lambda_g *. r.Latency.u
                    | Variants.Network_total -> p.Inter.lambda_ecn1
                  in
                  let rho_src = clamp01 (src_lambda *. p.Inter.network) in
                  let rho_cd = clamp01 (p.Inter.lambda_icn2 *. cd_service) in
                  (* Source wait + two C/D waits: summed means, busy
                     probability of the three-queue composite. *)
                  {
                    Tail.weight = node_share *. r.Latency.u /. pair_count;
                    floor = p.Inter.network +. p.Inter.tail;
                    wait_mean = p.Inter.waiting +. p.Inter.cd_wait;
                    sigma =
                      1. -. ((1. -. rho_src) *. (1. -. rho_cd) *. (1. -. rho_cd));
                  })
                ex.Inter.pairs
        in
        intra_c :: inter_cs)
      l.Latency.clusters
  in
  { Tail.mean = l.Latency.mean_latency; components }

let tail ?variants ?outgoing ~system ~message ~lambda_g () =
  of_latency ?variants ~system ~message ~lambda_g
    (Latency.evaluate ?variants ?outgoing ~system ~message ~lambda_g ())
