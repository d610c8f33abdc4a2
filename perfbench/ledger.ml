(* Timing, allocation and latency-distribution helpers, and the ledger of
   named metrics a run prints. Every measurement is taken from outside the
   library: around calls into each layer's public functions. *)

let now_s () = float_of_int (Fsam_obs.Monotonic.now_ns ()) *. 1e-9

(* Words allocated by the current domain so far. [Gc.minor_words] reads the
   allocation pointer, so it is exact between collections; direct major
   allocations are major words that were not promoted. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [f ()] with its wall seconds and allocated words. *)
let timed f =
  let a0 = alloc_words () in
  let t0 = now_s () in
  let v = f () in
  let dt = now_s () -. t0 in
  (v, dt, alloc_words () -. a0)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latency samples of one query class. Back-to-back query loops can produce
   millions of samples; past [cap] the store keeps every other sample and
   doubles its stride, so what it holds stays a uniform subsample of the
   whole stream and recording never allocates. *)
module Samples = struct
  type t = {
    a : Float.Array.t;
    mutable n : int;
    mutable stride : int;
    mutable skip : int;
    mutable seen : int;
  }

  let create ?(cap = 1 lsl 17) () =
    { a = Float.Array.make cap 0.; n = 0; stride = 1; skip = 0; seen = 0 }

  let add t x =
    t.seen <- t.seen + 1;
    if t.skip > 0 then t.skip <- t.skip - 1
    else begin
      let cap = Float.Array.length t.a in
      if t.n = cap then begin
        for i = 0 to (cap / 2) - 1 do
          Float.Array.set t.a i (Float.Array.get t.a (2 * i))
        done;
        t.n <- cap / 2;
        t.stride <- 2 * t.stride
      end;
      Float.Array.set t.a t.n x;
      t.n <- t.n + 1;
      t.skip <- t.stride - 1
    end

  (* Nearest-rank percentile of held samples [lo, hi); [nan] when empty. *)
  let percentile_of t ~lo ~hi p =
    let n = hi - lo in
    if n <= 0 then nan
    else begin
      let a = Float.Array.sub t.a lo n in
      Float.Array.sort Float.compare a;
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      Float.Array.get a (max 0 (min (n - 1) k))
    end

  let percentile t p = percentile_of t ~lo:0 ~hi:t.n p

  (* The p99 of each run of [window] consecutive held samples (the last run
     absorbs the remainder), median over the runs: the tail a reader sees
     in a typical stretch of a busy phase. The p99 over the whole phase
     instead swings with the handful of multi-millisecond collector pauses
     each phase happens to overlap. *)
  let windowed_p99 ?(window = 1000) t =
    if t.n = 0 then nan
    else
      let k = max 1 (t.n / window) in
      median
        (List.init k (fun i ->
             let hi = if i = k - 1 then t.n else (i + 1) * window in
             percentile_of t ~lo:(i * window) ~hi 0.99))

  let summary what t =
    Printf.sprintf
      "%s: %d samples (%d held), us p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f, windowed p99 %.1f" what
      t.seen t.n (percentile t 0.5) (percentile t 0.9) (percentile t 0.99) (percentile t 0.999)
      (windowed_p99 t)
end

(* Peak resident set of this process in MB, from /proc ([VmHWM]). *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          match String.split_on_char ':' line with
          | [ "VmHWM"; rest ] ->
            Scanf.sscanf (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        scan ())
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ -> nan

(* -- the ledger ----------------------------------------------------------- *)

type t = {
  mutable metrics : (string * float * string) list;  (** in print order *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** reversed *)
  mutable notes : string list;  (** reversed *)
}

let create () = { metrics = []; attempted = 0; failed = 0; failures = []; notes = [] }
let note t msg = t.notes <- msg :: t.notes
let notes t = List.rev t.notes

(* [combine old new] gives the value of a metric already present; a new
   name goes to the end. *)
let update t name value unit ~combine =
  if List.exists (fun (n, _, _) -> n = name) t.metrics then
    t.metrics <-
      List.map (fun (n, v, u) -> if n = name then (n, combine v value, u) else (n, v, u)) t.metrics
  else t.metrics <- t.metrics @ [ (name, value, unit) ]

let set t name value unit = update t name value unit ~combine:(fun _ v -> v)

(* Per-layer walls, allocations and counts accumulate over the programs of
   a workload. *)
let add t name value unit = update t name value unit ~combine:( +. )

let metrics t = t.metrics

(* One operation: a program analysed plus its oracle checks, or a request.
   [checks] lists the verdicts of the checks made on it; any [Error] marks
   the operation failed. *)
let op t ~what checks =
  t.attempted <- t.attempted + 1;
  let errs = List.filter_map (function Ok () -> None | Error e -> Some e) checks in
  if errs <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun e -> t.failures <- (what ^ ": " ^ e) :: t.failures) errs
  end

let failures t = List.rev t.failures

let result_json t =
  let module J = Fsam_obs.Json in
  J.Obj
    [
      ("correct", J.Bool (t.failed = 0 && t.attempted > 0));
      ("attempted", J.Int t.attempted);
      ("failed", J.Int t.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
             (metrics t)) );
    ]
