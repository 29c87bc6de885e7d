(** The program's one domain executor: a persistent pool of OCaml 5
    worker domains plus the calling domain.

    Both multicore layers run on it — the model's batch evaluation
    ([Fatnet_model.Eval.Pool]) and the simulator's figure sweeps
    ([Fatnet_experiments.Sweep_engine]) — and it is the only code
    that spawns or joins domains.

    {b Scheduling.}  Every domain, the caller included (as domain 0),
    claims the next unclaimed task index from one atomic counter
    until the batch is drained, so a domain stuck on a slow task
    never strands the rest of the batch.  Tasks are claimed in index
    order: a caller that sorts its tasks costliest-first gets greedy
    longest-processing-time list scheduling. *)

type t
(** A pool of [domains - 1] worker domains plus the caller. *)

val recommended_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count ())] — the default pool
    size, and the documented default of every [--domains] flag. *)

val create : ?domains:int -> unit -> t
(** Spawn the worker domains ([domains] defaults to
    {!recommended_domains}; must be [>= 1]).  Pools are cheap to keep
    and expensive to churn — create one per phase, not one per
    batch. *)

val domains : t -> int

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent; {!run} afterwards
    raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, always [shutdown]. *)

val run : t -> int -> f:(int -> int -> unit) -> float array
(** [run t n ~f] calls [f d i] once for every task index [i] in
    [0 .. n-1], where [d] is the executing domain ([0] for the
    caller, [1 .. domains t - 1] for workers), and returns each
    domain's busy seconds over the batch.

    When the caller's ambient metrics registry is enabled, each
    worker runs its tasks under a fresh ambient registry, absorbed
    into the caller's registry after the join; the caller keeps its
    own.  The first task exception stops further claims and is
    re-raised, with its backtrace, after the join.  One [run] at a
    time per pool — a nested or concurrent call raises
    [Invalid_argument] and leaves the running batch untouched. *)

val run_once : ?domains:int -> int -> f:(int -> int -> unit) -> float array
(** [run] on a fresh pool whose workers exit as soon as they find the
    batch drained, instead of idling until {!shutdown}; the pool is
    shut down before returning.  For callers with a single batch,
    such as a figure sweep: a worker left idle while the caller
    finishes a long last task raised a 2-domain fig5 sweep's peak
    RSS by about 12 % (OCaml 5.1, 2-vCPU x86-64 host). *)
