(* Fixed-size domain pool with deterministic, order-preserving fan-out,
   scheduled by per-worker chunk deques with work-stealing.

   The original pool fed every domain from one mutex/condition chunk queue:
   each chunk take was a lock round-trip, and each chunk completion took the
   lock twice more to maintain an active-domain list — at experiment-sized
   chunks the domains spent their time convoying on that mutex, which is how
   the pooled fig1 run ended up *slower* than the sequential one
   (BENCH_baseline.json, ROADMAP item 2). This version has no lock on the
   hot path at all:

   - A job splits the index range [0, size) into [domains] contiguous
     blocks, one per executing domain, each subdivided into chunks of a
     deterministic size ({!chunk_size}). Block d is slot d's own deque.
   - A slot claims chunks from its own block with one [Atomic.fetch_and_add]
     per chunk. When its block is empty it *steals*: it scans the other
     blocks in a fixed cyclic victim order (slot + 1, slot + 2, ...) and
     claims a chunk from the first non-empty one. The scan order is fixed so
     scheduling behaviour is reproducible in shape; which steals actually
     happen still depends on timing, which is fine because scheduling can
     never reach the results (below).
   - Completion is one atomic countdown of accounted indices. The domain
     that accounts the last index takes the (cold) mutex once to clear the
     job and wake the submitter. Workers that find every block empty park on
     the condition variable until the next job's generation bump — an idle
     pool burns no cycles, and a 1-task job on an 8-domain pool costs each
     worker exactly one failed scan before it parks again.

   Determinism does NOT come from scheduling — chunks run wherever claiming
   and stealing land them — but from the contract that task [i] writes only
   slot [i] of the output and shares no mutable state with other tasks, so
   the merge in task-index order is a pure function of the task results.
   Callers that need randomness must pre-split one PRNG per task *before*
   submitting ({!parallel_init_rng} does it for them), which makes output
   bit-identical for any domain count, including the inline [domains = 1]
   path. *)

(* Per-slot activity accounting. Slot 0 is the submitting domain, slots
   1..domains-1 the spawned workers; each slot is written only by its own
   domain, so the counters need no locking. The times are wall-clock —
   they never feed back into simulation state, they only attribute where
   real time went (bench --json "pool" section; ROADMAP item 2).
   analysis: allow wall-clock — pool accounting only, never simulation state *)
let now () = Unix.gettimeofday ()

type slot = {
  mutable busy_s : float;  (* running task bodies *)
  mutable idle_s : float;  (* parked waiting for a job / for completion *)
  mutable steal_wait_s : float;  (* claiming chunks and scanning victims *)
  mutable chunks : int;  (* chunks executed *)
  mutable steals : int;  (* chunks claimed from another slot's block *)
  mutable empty_scans : int;  (* victim scans that found every block empty *)
  mutable wakeups : int;  (* times the worker left the parked state for a job *)
}

type worker_stats = {
  worker : int;
  busy_s : float;
  idle_s : float;
  steal_wait_s : float;
  chunks : int;
  steals : int;
  empty_scans : int;
  wakeups : int;
}

(* Mutable per-slot state is written from [domains] different domains at
   chunk frequency; allocating the records back to back would put several
   of them on one cache line and turn the counters into false sharing.
   The dead allocation between elements spaces consecutive records at
   least a cache line apart (OCaml's minor allocator is a bump pointer,
   so consecutive allocations are adjacent). *)
let padded_init n ~f =
  Array.init n (fun i ->
      let v = f i in
      ignore (Sys.opaque_identity (Bytes.create 128));
      v)

type job = {
  chunk : int;  (* chunk length, {!chunk_size} of (size, domains) *)
  block_hi : int array;  (* block d is [block_lo.(d), block_hi.(d)) *)
  cursors : int Atomic.t array;  (* first unclaimed index of each block *)
  remaining : int Atomic.t;  (* indices not yet accounted *)
  failed : exn option Atomic.t;  (* first task failure; cancels the tail *)
  run : int -> int -> unit;  (* run [lo, hi) — must only touch its own slots *)
}

type t = {
  mutex : Mutex.t;  (* cold path only: job install, parking, completion *)
  work_ready : Condition.t;  (* signalled on job install and on shutdown *)
  progress : Condition.t;  (* signalled when a job fully completes *)
  mutable job : job option;
  mutable generation : int;  (* bumped on every install; lets workers spot new jobs *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  stamp : int;  (* distinguishes this pool's tasks in the domain-local flag *)
  domain_count : int;
  slots : slot array;  (* per-domain activity counters, index 0 = submitter *)
}

let domain_count t = t.domain_count

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* ---------- Deterministic granularity policy ---------- *)

(* Chunks per block: small enough that claiming stays a rounding error
   against real task bodies, large enough that a slot stuck with a slow
   chunk leaves work for others to steal. Scheduling-only: the chunk size
   never influences which task computes what, so it is free to depend on
   the domain count without breaking the any-[--domains N] byte-identity
   contract (unlike shard counts inside the experiment drivers, which must
   depend only on the workload). *)
let chunks_per_block = 4

let chunk_size ~tasks ~domains =
  if tasks <= 0 then 1
  else if domains <= 1 then tasks
  else begin
    let target = chunks_per_block * domains in
    max 1 ((tasks + target - 1) / target)
  end

(* ---------- Task-context flag (nested fan-out detection) ---------- *)

(* Which pool's task body the current domain is inside, or 0. Submitting
   from inside a task would wait on the in-flight job that the submission
   itself is part of — a deadlock when the calling domain is the one the
   outer job is waiting for — so nested fan-out must run inline instead.
   A domain-local integer replaces the old mutex-guarded active list, which
   cost two lock round-trips per chunk. *)
let task_context : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let next_stamp = Atomic.make 1

let in_task t = Domain.DLS.get task_context = t.stamp

(* ---------- Chunk claiming and execution ---------- *)

(* Claim the next chunk of [block] with a single fetch-and-add; the cursor
   may run past the block end when several domains race the last chunk,
   which only makes later claims fail fast. Each index is claimed exactly
   once because fetch_and_add hands out disjoint ranges. *)
let claim job block =
  let hi = job.block_hi.(block) in
  let cursor = job.cursors.(block) in
  if Atomic.get cursor >= hi then None
  else begin
    let lo = Atomic.fetch_and_add cursor job.chunk in
    if lo >= hi then None else Some (lo, min hi (lo + job.chunk))
  end

(* Run one claimed chunk and account it. After a failure the remaining
   chunks are still claimed and accounted — just not run — so the countdown
   always reaches zero and the submitter always wakes; the first failure
   wins and is re-raised by the submitter. The domain that accounts the
   last index clears the installed job and broadcasts completion. *)
let run_chunk t ~slot job lo hi =
  let s = t.slots.(slot) in
  (match Atomic.get job.failed with
  | Some _ -> ()  (* cancelled tail: account without running *)
  | None ->
      let started = now () in
      let previous = Domain.DLS.get task_context in
      Domain.DLS.set task_context t.stamp;
      (try job.run lo hi
       with e -> ignore (Atomic.compare_and_set job.failed None (Some e)));
      Domain.DLS.set task_context previous;
      s.busy_s <- s.busy_s +. (now () -. started);
      s.chunks <- s.chunks + 1);
  if Atomic.fetch_and_add job.remaining (lo - hi) = hi - lo then begin
    Mutex.lock t.mutex;
    t.job <- None;
    Condition.broadcast t.progress;
    Mutex.unlock t.mutex
  end

(* Drain the job from [slot]'s point of view: own block first, then steal
   from the other blocks in fixed cyclic victim order. Returns when every
   block is empty. Time spent claiming and scanning is the steal-wait. *)
let drain t ~slot job =
  let domains = t.domain_count in
  let s = t.slots.(slot) in
  let continue = ref true in
  while !continue do
    let started = now () in
    match claim job slot with
    | Some (lo, hi) ->
        s.steal_wait_s <- s.steal_wait_s +. (now () -. started);
        run_chunk t ~slot job lo hi
    | None ->
        let found = ref None in
        let victim = ref ((slot + 1) mod domains) in
        while !found = None && !victim <> slot do
          (match claim job !victim with
          | Some range -> found := Some range
          | None -> victim := (!victim + 1) mod domains)
        done;
        s.steal_wait_s <- s.steal_wait_s +. (now () -. started);
        (match !found with
        | Some (lo, hi) ->
            s.steals <- s.steals + 1;
            run_chunk t ~slot job lo hi
        | None ->
            s.empty_scans <- s.empty_scans + 1;
            continue := false)
  done

let worker_loop t ~slot () =
  let seen_generation = ref 0 in
  let running = ref true in
  while !running do
    let started = now () in
    Mutex.lock t.mutex;
    while t.generation = !seen_generation && not t.shutting_down do
      Condition.wait t.work_ready t.mutex
    done;
    let stop = t.shutting_down in
    let generation = t.generation in
    let job = t.job in
    Mutex.unlock t.mutex;
    let s = t.slots.(slot) in
    s.idle_s <- s.idle_s +. (now () -. started);
    if stop then running := false
    else begin
      seen_generation := generation;
      s.wakeups <- s.wakeups + 1;
      match job with Some job -> drain t ~slot job | None -> ()
    end
  done

(* ---------- Lifecycle ---------- *)

let create ?domains () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      progress = Condition.create ();
      job = None;
      generation = 0;
      shutting_down = false;
      workers = [];
      stamp = Atomic.fetch_and_add next_stamp 1;
      domain_count = domains;
      slots =
        padded_init domains ~f:(fun _ ->
            {
              busy_s = 0.;
              idle_s = 0.;
              steal_wait_s = 0.;
              chunks = 0;
              steals = 0;
              empty_scans = 0;
              wakeups = 0;
            });
    }
  in
  (* The submitter participates, so [domains - 1] spawned workers give
     [domains] executing domains in total. Worker i owns slot i + 1;
     slot 0 belongs to the submitting domain. *)
  t.workers <- List.init (domains - 1) (fun i -> Domain.spawn (worker_loop t ~slot:(i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---------- Fan-out ---------- *)

let sequential_init n ~f = Array.init n f

let pooled_init t n ~f =
  let out = Array.make n None in
  let run lo hi =
    for i = lo to hi - 1 do
      out.(i) <- Some (f i)
    done
  in
  let domains = t.domain_count in
  let job =
    {
      chunk = chunk_size ~tasks:n ~domains;
      block_hi = Array.init domains (fun d -> (d + 1) * n / domains);
      cursors = padded_init domains ~f:(fun d -> Atomic.make (d * n / domains));
      remaining = Atomic.make n;
      failed = Atomic.make None;
      run;
    }
  in
  Mutex.lock t.mutex;
  while t.job <> None && not t.shutting_down do
    Condition.wait t.progress t.mutex
  done;
  if t.shutting_down then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.parallel_init: pool is shut down"
  end;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  drain t ~slot:0 job;
  let wait_started = now () in
  Mutex.lock t.mutex;
  while Atomic.get job.remaining > 0 do
    Condition.wait t.progress t.mutex
  done;
  Mutex.unlock t.mutex;
  let s = t.slots.(0) in
  s.idle_s <- s.idle_s +. (now () -. wait_started);
  (match Atomic.get job.failed with Some e -> raise e | None -> ());
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Pool.parallel_init: missing result (task did not run)")
    out

let parallel_init ?pool n ~f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative size";
  match pool with
  | None -> sequential_init n ~f
  | Some t ->
      (* A task that itself fans out must not block on the shared job slot:
         nested submissions (and single-domain pools) run inline. *)
      if t.domain_count <= 1 || n <= 1 || in_task t then sequential_init n ~f
      else pooled_init t n ~f

let parallel_map ?pool xs ~f = parallel_init ?pool (Array.length xs) ~f:(fun i -> f xs.(i))

(* One generator per task, split in index order before dispatch — the
   pre-split idiom every experiment driver needs, packaged so call sites
   allocate one stream array and no per-task closures beyond [f] itself.
   The split happens on the submitting domain, so the streams (and hence
   all output bytes) are independent of the domain count. *)
let parallel_init_rng ?pool n ~rng ~f =
  if n < 0 then invalid_arg "Pool.parallel_init_rng: negative size";
  let rngs = Prng.split_n rng n in
  parallel_init ?pool n ~f:(fun i -> f i rngs.(i))

(* ---------- Activity stats ---------- *)

let stats t =
  Array.to_list
    (Array.mapi
       (fun i (s : slot) ->
         {
           worker = i;
           busy_s = s.busy_s;
           idle_s = s.idle_s;
           steal_wait_s = s.steal_wait_s;
           chunks = s.chunks;
           steals = s.steals;
           empty_scans = s.empty_scans;
           wakeups = s.wakeups;
         })
       t.slots)

let reset_stats t =
  Array.iter
    (fun (s : slot) ->
      s.busy_s <- 0.;
      s.idle_s <- 0.;
      s.steal_wait_s <- 0.;
      s.chunks <- 0;
      s.steals <- 0;
      s.empty_scans <- 0;
      s.wakeups <- 0)
    t.slots
