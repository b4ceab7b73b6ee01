(** In-memory span and counter recorder for the benchmark's traced run.

    Spans are recorded only while [on] is set; with it off, [with_] is one
    test and a call.  Nesting follows the calling thread's dynamic extent,
    so recording is for one thread at a time: the offline workloads trace
    a single domain, and the serve client records its per-request spans
    through [record] under a lock. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  cid : int;  (** compile (or request) the span belongs to *)
  tid : int;
  t0 : float;
  t1 : float;
  minor_words : float;  (** minor-heap words allocated inside, when asked for *)
}

let on = ref false
let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cid = ref 0
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let with_ ?(alloc = false) name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = if alloc then Gc.minor_words () else 0.0 in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let minor_words = if alloc then Gc.minor_words () -. w0 else 0.0 in
      stack := List.tl !stack;
      spans := { id; name; parent; cid = !cid; tid = 0; t0; t1; minor_words } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** A root span timed by the caller (used from several threads). *)
let record ~name ~cid ~tid ~t0 ~t1 =
  if !on then
    Mutex.protect lock (fun () ->
        let id = fresh_id () in
        spans := { id; name; parent = -1; cid; tid; t0; t1; minor_words = 0.0 } :: !spans)

let count name n =
  if !on then
    Hashtbl.replace counters name (n + Option.value (Hashtbl.find_opt counters name) ~default:0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(** Self time of every span: its duration minus its children's. *)
let self_times (all : t list) =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    all;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    all

(** Chrome trace-event JSON ("X" complete events, microseconds), which
    Perfetto and chrome://tracing open. *)
let write_chrome path (all : t list) =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"cid\":%d}}"
        (if i = 0 then "" else ",")
        s.name (layer s.name) s.tid
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.cid)
    (List.sort (fun a b -> compare a.id b.id) all);
  output_string oc "\n]}\n";
  close_out oc
