let dot_range x y lo hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let dot_length x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Kernels.dot: length mismatch";
  n

let dot_seq x y = dot_range x y 0 (dot_length x y)

let dot_par pool x y =
  Pool.parallel_reduce pool ~lo:0 ~hi:(dot_length x y) ~chunk:(dot_range x y)
    ~combine:( +. ) 0.0

let matvec_row ~k m v r =
  let base = r * k in
  let acc = ref 0.0 in
  for c = 0 to k - 1 do
    acc := !acc +. (m.(base + c) *. v.(c))
  done;
  !acc

let matvec_seq ~m ~k mat v =
  Array.init m (fun r -> matvec_row ~k mat v r)

let matvec_par pool ~m ~k mat v =
  let out = Array.make m 0.0 in
  Pool.parallel_for pool ~lo:0 ~hi:m (fun r -> out.(r) <- matvec_row ~k mat v r);
  out

let matmul_seq ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + p) *. b.((p * n) + j))
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let matmul_tile_block ~n ~k ~tile a b c i0 i1 =
  (* block over j and p for locality; rows [i0, i1) *)
  let j0 = ref 0 in
  while !j0 < n do
    let j1 = min n (!j0 + tile) in
    let p0 = ref 0 in
    while !p0 < k do
      let p1 = min k (!p0 + tile) in
      for i = i0 to i1 - 1 do
        for p = !p0 to p1 - 1 do
          let aip = a.((i * k) + p) in
          let brow = p * n in
          let crow = i * n in
          for j = !j0 to j1 - 1 do
            c.(crow + j) <- c.(crow + j) +. (aip *. b.(brow + j))
          done
        done
      done;
      p0 := p1
    done;
    j0 := j1
  done

let matmul_tiled ?(tile = 32) ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  let i0 = ref 0 in
  while !i0 < m do
    let i1 = min m (!i0 + tile) in
    matmul_tile_block ~n ~k ~tile a b c !i0 i1;
    i0 := i1
  done;
  c

let matmul_par pool ?(tile = 32) ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  let n_blocks = (m + tile - 1) / tile in
  Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n_blocks (fun blk ->
      let i0 = blk * tile in
      let i1 = min m (i0 + tile) in
      matmul_tile_block ~n ~k ~tile a b c i0 i1);
  c

let scan_seq xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n xs.(0) in
    for i = 1 to n - 1 do
      out.(i) <- out.(i - 1) +. xs.(i)
    done;
    out
  end

let scan_par pool xs = Pool.scan_inclusive pool ( +. ) xs

let jacobi3d_point ~n x i j l =
  let at a b c = x.((((a * n) + b) * n) + c) in
  if i = 0 || j = 0 || l = 0 || i = n - 1 || j = n - 1 || l = n - 1 then at i j l
  else
    (at (i - 1) j l +. at (i + 1) j l +. at i (j - 1) l +. at i (j + 1) l
    +. at i j (l - 1) +. at i j (l + 1) +. at i j l)
    /. 7.0

let jacobi3d_seq ~n x =
  let out = Array.make (n * n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for l = 0 to n - 1 do
        out.((((i * n) + j) * n) + l) <- jacobi3d_point ~n x i j l
      done
    done
  done;
  out

let jacobi3d_par pool ~n x =
  let out = Array.make (n * n * n) 0.0 in
  Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
      for j = 0 to n - 1 do
        for l = 0 to n - 1 do
          out.((((i * n) + j) * n) + l) <- jacobi3d_point ~n x i j l
        done
      done);
  out
