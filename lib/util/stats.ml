type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 64 0.0; size = 0; sorted = true }

let add t x =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let total t =
  let sum = ref 0.0 in
  for i = 0 to t.size - 1 do
    sum := !sum +. t.data.(i)
  done;
  !sum

let mean t = if t.size = 0 then 0.0 else total t /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = t.data.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int (t.size - 1))
  end

let ensure_sorted t =
  if not t.sorted then begin
    let slice = Array.sub t.data 0 t.size in
    Array.sort compare slice;
    Array.blit slice 0 t.data 0 t.size;
    t.sorted <- true
  end

let min_value t =
  if t.size = 0 then 0.0
  else begin
    ensure_sorted t;
    t.data.(0)
  end

let max_value t =
  if t.size = 0 then 0.0
  else begin
    ensure_sorted t;
    t.data.(t.size - 1)
  end

let percentile t p =
  if t.size = 0 then 0.0
  else begin
    ensure_sorted t;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) in
    let idx = if rank <= 0 then 0 else Stdlib.min (rank - 1) (t.size - 1) in
    t.data.(idx)
  end

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.data.(i)
  done;
  t

let clear t =
  t.size <- 0;
  t.sorted <- true

module Online = struct
  type t = { mutable n : int; mutable mean : float }

  let create () = { n = 0; mean = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

  let mean t = if t.n = 0 then 0.0 else t.mean
end
