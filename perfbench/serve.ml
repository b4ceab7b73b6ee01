(** The [serve] workload: an [hlsc serve] daemon with a fresh, empty
    [--store-dir] per set-up, driven closed-loop through [Client.submit] by
    one client thread per core (at most two), each over its own
    connection.

    Each client sends a seeded stream in blocks of 20 requests with
    fixed shares: [recent] repeats of its own last few first-time specs
    (memory-cache hits), [old] repeats of its specs inserted at least
    [cache_cap] insertions ago (evicted from the FIFO memory cache, so
    store hits), and [fresh] first-time specs (a worker compile plus a
    store publish).  Sorted by latency the kinds fall at 0-60%, 60-75%
    and 75-100%, so the median sits inside the memory hits and the 90th
    percentile inside the compiles, away from either boundary.  Clients
    draw from disjoint spec sets, so no request waits on the other
    client's identical job. *)

module P = Hls_server.Protocol
module Client = Hls_server.Client

let cache_cap = 16
let clients = max 1 (min 2 (Domain.recommended_domain_count ()))

(** One worker process: the clients, the daemon and the worker share two
    cores.  With two workers the memory hits waited on busy cores, and
    throughput and latency varied by 15-25% between runs; with one,
    throughput repeated within 1% in three runs of four. *)
let workers = 1
let recent = 12
let old = 3
let fresh = 5

(** How many own insertions back a "recent" repeat may reach: with the
    other client inserting at a similar rate it stays well inside the
    cache. *)
let recent_window = 3

(* ------------------------------------------------------------------ *)
(* Daemon *)

type daemon = { pid : int; dir : string; socket : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let live : daemon list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Measure.now () +. 20.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Measure.now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    rm_rf d.dir
  end

let () = at_exit (fun () -> List.iter stop !live)

(** Start a daemon in [dir] (created empty) and wait until it answers. *)
let start ~hlsc ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Unix.create_process hlsc
      [|
        hlsc; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--store-dir";
        Filename.concat dir "store"; "--cache-cap"; string_of_int cache_cap;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; dir; socket } in
  live := d :: !live;
  let deadline = Measure.now () +. 60.0 in
  let rec wait () =
    match Client.connect ~socket () with
    | Ok c -> Client.close c
    | Error e ->
        if Measure.now () > deadline then failwith ("daemon did not come up: " ^ e);
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  d

(* ------------------------------------------------------------------ *)
(* Request stream *)

let designs () =
  Array.of_list
    (List.map (fun n -> `Builtin n) Compile.builtin_names
    @ List.map (fun (_, text) -> `Source text) (Compile.bhv_sources ()))

type kind = Recent | Old | Fresh

(** One client's stream state.  [specs.(i)] is the client's [i]th
    first-time spec; [inserted.(i)] is the client's insertion count when
    that spec last entered the daemon's memory cache. *)
type stream = {
  client : int;
  v : int;
  designs : [ `Builtin of string | `Source of string ] array;
  rng : Random.State.t;
  mutable specs : P.job_spec array;
  mutable inserted : int array;
  mutable n_specs : int;
  mutable insertions : int;
}

let stream ~seed ~client =
  {
    client;
    v = Compile.variant seed;
    designs = designs ();
    rng = Random.State.make [| seed; client |];
    specs = [||];
    inserted = [||];
    n_specs = 0;
    insertions = 0;
  }

(** A client's [n]th first-time spec: the designs in turn, sequential
    and at II=2 on alternate passes over them, each pass one clock step
    further, offset by the seed's clock variant.  No other spec of the run
    has the same design and clock, and every run compiles the same mix. *)
let new_spec st =
  let n = st.n_specs and nd = Array.length st.designs in
  let pass = n / nd in
  let ii = if pass mod 2 = 0 then None else Some 2 in
  let cmd = [| P.C_schedule; P.C_pipeline; P.C_flow |].(n mod 3) in
  let clock_ps = 1500.0 +. (4.0 *. float_of_int st.v) +. float_of_int ((pass * clients) + st.client) in
  P.job_spec ?ii ~clock_ps cmd st.designs.((n + st.client) mod nd)

let grow a n x = if n < Array.length a then a else Array.append a (Array.make (max 16 n) x)

(** Next request of a kind: the spec index, and the spec. *)
let next st kind =
  let pick cands = List.nth cands (Random.State.int st.rng (List.length cands)) in
  let i =
    match kind with
    | Fresh ->
        let spec = new_spec st in
        st.specs <- grow st.specs st.n_specs spec;
        st.inserted <- grow st.inserted st.n_specs 0;
        st.specs.(st.n_specs) <- spec;
        st.n_specs <- st.n_specs + 1;
        st.n_specs - 1
    | Recent ->
        pick
          (List.filter
             (fun i -> st.inserted.(i) > st.insertions - recent_window)
             (List.init st.n_specs Fun.id))
    | Old ->
        pick
          (List.filter
             (fun i -> st.inserted.(i) <= st.insertions - cache_cap)
             (List.init st.n_specs Fun.id))
  in
  if kind <> Recent then begin
    st.insertions <- st.insertions + 1;
    st.inserted.(i) <- st.insertions
  end;
  (i, st.specs.(i))

(** One block's kinds, shuffled. *)
let block_kinds st =
  let a =
    Array.of_list
      (List.init recent (fun _ -> Recent)
      @ List.init old (fun _ -> Old)
      @ List.init fresh (fun _ -> Fresh))
  in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st.rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Enough first-time specs that both repeat kinds have candidates. *)
let warm_up_specs = cache_cap + recent_window + 1

type reply = {
  client_ : int;
  spec_ix : int;
  latency_s : float;
  answer : (P.outcome, string) result;
}

(** Run one client closed-loop: [warm_up] first-time specs, then whole
    blocks until [until] (never if [until] is [None]). *)
let run_client ~socket ~st ~warm_up ~until ~traced ~record =
  match Client.connect ~socket () with
  | Error e -> failwith ("connect: " ^ e)
  | Ok c ->
      let send kind =
        let ix, spec = next st kind in
        let t0 = Measure.now () in
        let answer = Client.submit c spec in
        let t1 = Measure.now () in
        if traced then
          Perfbench_probe.Span.record ~name:"serve.submit" ~cid:((ix * clients) + st.client)
            ~tid:st.client ~t0 ~t1;
        record { client_ = st.client; spec_ix = ix; latency_s = t1 -. t0; answer }
      in
      for _ = 1 to warm_up do
        send Fresh
      done;
      (match until with
      | None -> ()
      | Some deadline ->
          while Measure.now () < deadline do
            List.iter send (block_kinds st)
          done);
      Client.close c

(** Run all clients in parallel threads; returns the replies. *)
let drive ~socket ~streams ~warm_up ~until ~traced =
  let lock = Mutex.create () in
  let replies = ref [] in
  let record r = Mutex.protect lock (fun () -> replies := r :: !replies) in
  let errors = ref [] in
  let threads =
    List.map
      (fun st ->
        Thread.create
          (fun () ->
            try run_client ~socket ~st ~warm_up ~until ~traced ~record
            with e -> Mutex.protect lock (fun () -> errors := Printexc.to_string e :: !errors))
          ())
      streams
  in
  List.iter Thread.join threads;
  (List.rev !replies, !errors)

(* ------------------------------------------------------------------ *)
(* Checks *)

(** The offline result for a spec: what [hlsc schedule|pipeline|flow]
    prints for it, or the diagnostic code it fails with. *)
let offline (spec : P.job_spec) =
  match Hls_server.Design_db.load spec.P.js_design with
  | Error m -> Error ("bad_design: " ^ m)
  | Ok design -> (
      match Hls_flow.Flow.run ~options:(Hls_server.Artifact.options_of_spec spec) design with
      | Ok f -> Ok (f, Hls_server.Render.output spec.P.js_cmd f)
      | Error d -> Error d.Hls_diag.Diag.d_code)

(** Offline results by spec, each computed once. *)
type references = (P.job_spec, (Hls_flow.Flow.t * string, string) result) Hashtbl.t

let references () : references = Hashtbl.create 256

let reference (refs : references) spec =
  match Hashtbl.find_opt refs spec with
  | Some r -> r
  | None ->
      let r = offline spec in
      Hashtbl.replace refs spec r;
      r

let spec_of streams r = (List.find (fun s -> s.client = r.client_) streams).specs.(r.spec_ix)

(** What is wrong with a reply, if anything: it must be byte-identical to
    the offline rendering of its spec, or carry the same diagnostic code. *)
let check refs streams r =
  let what = Printf.sprintf "client %d spec %d" r.client_ r.spec_ix in
  match (r.answer, reference refs (spec_of streams r)) with
  | Error e, _ -> Some (what ^ ": transport: " ^ e)
  | Ok o, Ok (_, text) when o.P.o_status = P.S_ok && String.equal o.P.o_output text -> None
  | Ok o, Error code when o.P.o_status = P.S_error && o.P.o_code = Some code -> None
  | Ok o, _ -> Some (Printf.sprintf "%s: reply differs from the offline output (%s)" what o.P.o_summary)

let stats_json socket =
  match Client.connect ~socket () with
  | Error _ -> None
  | Ok c ->
      let s = Client.stats c in
      Client.close c;
      Result.to_option s

let rec member path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (P.member k j) (member rest)

let stat_int j path = Option.value (Option.bind (member path j) P.get_int) ~default:0

(** Peak RSS of the daemon and its workers. *)
let peak_rss_mb d =
  List.fold_left
    (fun a pid -> a +. Measure.peak_rss_mb (string_of_int pid))
    (Measure.peak_rss_mb (string_of_int d.pid))
    (Measure.children d.pid)
