(* The `.scn` texts the benchmark hands the program.  Every workload's
   input is generated here from the seed; nothing is read from the
   repository's examples. *)

(* fig5 / org_544: 16 clusters of three repeated classes (Table 1). *)
let fig5_system =
  {|m 4
icn2-depth 3
icn2 500 0.01 0.02
cluster*8 depth 3 icn1 500 0.01 0.02 ecn1 250 0.05 0.01
cluster*3 depth 4 icn1 500 0.01 0.02 ecn1 250 0.05 0.01
cluster*5 depth 5 icn1 500 0.01 0.02 ecn1 250 0.05 0.01|}

let render ~name ~system ~flits ~seed ~warmup ~measured ~drain ~load =
  String.concat "\n"
    [
      "scenario 1";
      "name " ^ name;
      "title perfbench " ^ name;
      "";
      "[system]";
      system;
      "";
      "[message]";
      Printf.sprintf "flits %d" flits;
      "flit-bytes 256";
      "";
      "[variants]";
      "lambda-i2 pair-average";
      "source-variance draper-ghosh";
      "source-rate per-node";
      "relaxing-factor on";
      "";
      "[pattern]";
      "uniform";
      "";
      "[protocol]";
      Printf.sprintf "warmup %d" warmup;
      Printf.sprintf "measured %d" measured;
      Printf.sprintf "drain %d" drain;
      Printf.sprintf "seed 0x%x" seed;
      "cd-mode cut-through";
      "streaming on";
      "";
      "[load]";
      load;
      "";
    ]

(* fig5's own figure: six points up to λ = 0.001, the protocol cut to
   [warmup/measured/drain] messages so one cold figure takes about a
   second of simulation. *)
let fig5 ~seed ~warmup ~measured ~drain =
  render ~name:"fig5" ~system:fig5_system ~flits:32 ~seed ~warmup ~measured ~drain
    ~load:"linear 0.001 6"
