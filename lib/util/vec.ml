type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let push t x =
  if t.size = Array.length t.data then begin
    let capacity = if t.size = 0 then 16 else t.size * 2 in
    let data = Array.make capacity x in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (size %d)" i t.size)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.data.(i) :: acc) in
  build (t.size - 1) []
