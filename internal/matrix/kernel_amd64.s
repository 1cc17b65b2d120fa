//go:build amd64 && !purego

#include "textflag.h"

// edgeMask holds four all-ones quadwords then four zero ones: the four
// starting at index 4−r enable lanes 0..r−1, the mask for an r-column
// edge (r = 1..3).
DATA edgeMask<>+0(SB)/8, $-1
DATA edgeMask<>+8(SB)/8, $-1
DATA edgeMask<>+16(SB)/8, $-1
DATA edgeMask<>+24(SB)/8, $-1
DATA edgeMask<>+32(SB)/8, $0
DATA edgeMask<>+40(SB)/8, $0
DATA edgeMask<>+48(SB)/8, $0
DATA edgeMask<>+56(SB)/8, $0
GLOBL edgeMask<>(SB), RODATA|NOPTR, $64

// func cpuHasAVX2() bool
//
// AVX2 requires: CPUID max leaf >= 7, CPUID.1:ECX OSXSAVE(27)+AVX(28),
// XCR0 XMM(1)+YMM(2) enabled by the OS, and CPUID.(7,0):EBX AVX2(5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// max basic leaf must reach 7
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JL   done

	// OSXSAVE and AVX in CPUID.1:ECX
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  done

	// OS must enable XMM and YMM state in XCR0
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done

	// AVX2 in CPUID.(7,0):EBX
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// func cpuHasAVX512() bool
//
// AVX-512F requires: CPUID max leaf >= 7, CPUID.1:ECX OSXSAVE(27),
// XCR0 XMM(1), YMM(2), opmask(5), ZMM0–15 upper halves(6) and
// ZMM16–31(7) enabled by the OS (0xE6), and CPUID.(7,0):EBX
// AVX512F(16). The AVX-512 tiles use AVX-512F instructions only.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// max basic leaf must reach 7
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JL   done

	// OSXSAVE in CPUID.1:ECX
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   done

	// OS must enable XMM, YMM, opmask and all ZMM state in XCR0
	MOVL   $0, CX
	XGETBV
	ANDL   $0xE6, AX
	CMPL   AX, $0xE6
	JNE    done

	// AVX512F in CPUID.(7,0):EBX
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// One depth step of one row of the tile: broadcast a[row, l], then for
// each vector of b (Y8, Y9) a separate multiply a·b (a the first
// source) and add c + product (c the first source). Every column step
// and both tile heights use these macros, so every element sees the
// same instruction sequence. AX indexes the depth.
#define STEP8(arow, acc0, acc1) \
	VBROADCASTSD (arow)(AX*8), Y10 \
	VMULPD       Y8, Y10, Y11      \
	VADDPD       Y11, acc0, acc0   \
	VMULPD       Y9, Y10, Y12      \
	VADDPD       Y12, acc1, acc1

#define STEP4(arow, acc) \
	VBROADCASTSD (arow)(AX*8), Y10 \
	VMULPD       Y8, Y10, Y11      \
	VADDPD       Y11, acc, acc

// func tile4AVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb, cols, k int)
//
// c[0:4, 0:cols] += a[0:4, 0:k]·b[0:k, 0:cols] over row-major views
// with row strides ldc, lda, ldb; k ≥ 1 and a holds no zero. Columns
// go eight at a time (a 4×8 tile of c in Y0–Y7 across the whole
// depth), then four, then a masked 1–3 column edge.
TEXT ·tile4AVX2(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	LEAQ (DI)(R8*2), BX       // c row 2; rows 1 and 3 are +R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), AX
	SHLQ $3, AX
	LEAQ (SI)(AX*1), R12      // a rows 1, 2, 3
	LEAQ (SI)(AX*2), R13
	LEAQ (R12)(AX*2), R14
	MOVQ b_base+64(FP), R11   // b at the current column tile
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ cols+96(FP), CX
	MOVQ k+104(FP), R9

t4_cols8:
	CMPQ    CX, $8
	JL      t4_cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R8*1), Y6
	VMOVUPD 32(BX)(R8*1), Y7
	MOVQ    R11, DX
	XORQ    AX, AX

t4_depth8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	STEP8(SI, Y0, Y1)
	STEP8(R12, Y2, Y3)
	STEP8(R13, Y4, Y5)
	STEP8(R14, Y6, Y7)
	ADDQ    R10, DX
	INCQ    AX
	CMPQ    AX, R9
	JL      t4_depth8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R8*1)
	VMOVUPD Y7, 32(BX)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	ADDQ    $64, R11
	SUBQ    $8, CX
	JMP     t4_cols8

t4_cols4:
	CMPQ    CX, $4
	JL      t4_edge
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD (BX), Y4
	VMOVUPD (BX)(R8*1), Y6
	MOVQ    R11, DX
	XORQ    AX, AX

t4_depth4:
	VMOVUPD (DX), Y8
	STEP4(SI, Y0)
	STEP4(R12, Y2)
	STEP4(R13, Y4)
	STEP4(R14, Y6)
	ADDQ    R10, DX
	INCQ    AX
	CMPQ    AX, R9
	JL      t4_depth4
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y6, (BX)(R8*1)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, R11
	SUBQ    $4, CX

t4_edge:
	TESTQ      CX, CX
	JZ         t4_done
	MOVQ       $4, AX
	SUBQ       CX, AX
	LEAQ       edgeMask<>(SB), DX
	VMOVUPD    (DX)(AX*8), Y13
	VMASKMOVPD (DI), Y13, Y0
	VMASKMOVPD (DI)(R8*1), Y13, Y2
	VMASKMOVPD (BX), Y13, Y4
	VMASKMOVPD (BX)(R8*1), Y13, Y6
	MOVQ       R11, DX
	XORQ       AX, AX

t4_depthm:
	VMASKMOVPD (DX), Y13, Y8
	STEP4(SI, Y0)
	STEP4(R12, Y2)
	STEP4(R13, Y4)
	STEP4(R14, Y6)
	ADDQ       R10, DX
	INCQ       AX
	CMPQ       AX, R9
	JL         t4_depthm
	VMASKMOVPD Y0, Y13, (DI)
	VMASKMOVPD Y2, Y13, (DI)(R8*1)
	VMASKMOVPD Y4, Y13, (BX)
	VMASKMOVPD Y6, Y13, (BX)(R8*1)

t4_done:
	VZEROUPPER
	RET

// func tile1AVX2(c, a, b []float64, ldb, cols, k int)
//
// The one-row variant of tile4AVX2 for the rows left over below a
// multiple of four: c[0, 0:cols] += a[0, 0:k]·b[0:k, 0:cols], same
// column steps, same operation order.
TEXT ·tile1AVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R11
	MOVQ ldb+72(FP), R10
	SHLQ $3, R10
	MOVQ cols+80(FP), CX
	MOVQ k+88(FP), R9

t1_cols8:
	CMPQ    CX, $8
	JL      t1_cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    R11, DX
	XORQ    AX, AX

t1_depth8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	STEP8(SI, Y0, Y1)
	ADDQ    R10, DX
	INCQ    AX
	CMPQ    AX, R9
	JL      t1_depth8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R11
	SUBQ    $8, CX
	JMP     t1_cols8

t1_cols4:
	CMPQ    CX, $4
	JL      t1_edge
	VMOVUPD (DI), Y0
	MOVQ    R11, DX
	XORQ    AX, AX

t1_depth4:
	VMOVUPD (DX), Y8
	STEP4(SI, Y0)
	ADDQ    R10, DX
	INCQ    AX
	CMPQ    AX, R9
	JL      t1_depth4
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R11
	SUBQ    $4, CX

t1_edge:
	TESTQ      CX, CX
	JZ         t1_done
	MOVQ       $4, AX
	SUBQ       CX, AX
	LEAQ       edgeMask<>(SB), DX
	VMOVUPD    (DX)(AX*8), Y13
	VMASKMOVPD (DI), Y13, Y0
	MOVQ       R11, DX
	XORQ       AX, AX

t1_depthm:
	VMASKMOVPD (DX), Y13, Y8
	STEP4(SI, Y0)
	ADDQ       R10, DX
	INCQ       AX
	CMPQ       AX, R9
	JL         t1_depthm
	VMASKMOVPD Y0, Y13, (DI)

t1_done:
	VZEROUPPER
	RET

// ZSTEP16 and ZSTEP8 are STEP8 and STEP4 on 512-bit vectors: one depth
// step of one row of a 16- or 8-column tile, b in Z8 (and Z9).
#define ZSTEP16(arow, acc0, acc1) \
	VBROADCASTSD (arow)(AX*8), Z10 \
	VMULPD       Z8, Z10, Z11      \
	VADDPD       Z11, acc0, acc0   \
	VMULPD       Z9, Z10, Z12      \
	VADDPD       Z12, acc1, acc1

#define ZSTEP8(arow, acc) \
	VBROADCASTSD (arow)(AX*8), Z10 \
	VMULPD       Z8, Z10, Z11      \
	VADDPD       Z11, acc, acc

// COLMASK sets the opmasks for the next column tile, at most 16 of the
// CX columns left: K1 enables the low eight lanes that lie inside the
// columns, K2 the high eight. Clobbers AX and DX.
#define COLMASK \
	MOVQ    $16, AX \
	CMPQ    CX, AX  \
	CMOVQLT CX, AX  \
	XORL    DX, DX  \
	BTSL    AX, DX  \
	DECL    DX      \
	KMOVW   DX, K1  \
	SHRL    $8, DX  \
	KMOVW   DX, K2

// func tile4AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, cols, k int)
//
// tile4AVX2 on 512-bit vectors, under the same contract: columns go
// sixteen at a time, a 4×16 tile of c in Z0–Z7 across the whole depth,
// and the last 1–8 columns as one 4×8 tile. Every load and store is
// opmasked by COLMASK, so a column edge needs no code of its own:
// lanes past it are loaded as zero without touching memory and are
// never stored.
TEXT ·tile4AVX512(SB), NOSPLIT, $0-112
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8
	LEAQ (DI)(R8*2), BX       // c row 2; rows 1 and 3 are +R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), AX
	SHLQ $3, AX
	LEAQ (SI)(AX*1), R12      // a rows 1, 2, 3
	LEAQ (SI)(AX*2), R13
	LEAQ (R12)(AX*2), R14
	MOVQ b_base+64(FP), R11   // b at the current column tile
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ cols+96(FP), CX
	MOVQ k+104(FP), R9

t4z_cols16:
	COLMASK
	CMPQ      CX, $8
	JLE       t4z_cols8
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z (DI)(R8*1), K1, Z2
	VMOVUPD.Z 64(DI)(R8*1), K2, Z3
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	VMOVUPD.Z (BX)(R8*1), K1, Z6
	VMOVUPD.Z 64(BX)(R8*1), K2, Z7
	MOVQ      R11, DX
	XORQ      AX, AX

t4z_depth16:
	VMOVUPD.Z (DX), K1, Z8
	VMOVUPD.Z 64(DX), K2, Z9
	ZSTEP16(SI, Z0, Z1)
	ZSTEP16(R12, Z2, Z3)
	ZSTEP16(R13, Z4, Z5)
	ZSTEP16(R14, Z6, Z7)
	ADDQ      R10, DX
	INCQ      AX
	CMPQ      AX, R9
	JL        t4z_depth16
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K2, 64(DI)
	VMOVUPD   Z2, K1, (DI)(R8*1)
	VMOVUPD   Z3, K2, 64(DI)(R8*1)
	VMOVUPD   Z4, K1, (BX)
	VMOVUPD   Z5, K2, 64(BX)
	VMOVUPD   Z6, K1, (BX)(R8*1)
	VMOVUPD   Z7, K2, 64(BX)(R8*1)
	ADDQ      $128, DI
	ADDQ      $128, BX
	ADDQ      $128, R11
	SUBQ      $16, CX
	JG        t4z_cols16
	JMP       t4z_done

t4z_cols8:
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (DI)(R8*1), K1, Z2
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z (BX)(R8*1), K1, Z6
	MOVQ      R11, DX
	XORQ      AX, AX

t4z_depth8:
	VMOVUPD.Z (DX), K1, Z8
	ZSTEP8(SI, Z0)
	ZSTEP8(R12, Z2)
	ZSTEP8(R13, Z4)
	ZSTEP8(R14, Z6)
	ADDQ      R10, DX
	INCQ      AX
	CMPQ      AX, R9
	JL        t4z_depth8
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z2, K1, (DI)(R8*1)
	VMOVUPD   Z4, K1, (BX)
	VMOVUPD   Z6, K1, (BX)(R8*1)

t4z_done:
	VZEROUPPER
	RET

// func tile1AVX512(c, a, b []float64, ldb, cols, k int)
//
// The one-row variant of tile4AVX512, under tile1AVX2's contract: same
// column steps, same operation order.
TEXT ·tile1AVX512(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R11
	MOVQ ldb+72(FP), R10
	SHLQ $3, R10
	MOVQ cols+80(FP), CX
	MOVQ k+88(FP), R9

t1z_cols16:
	COLMASK
	CMPQ      CX, $8
	JLE       t1z_cols8
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	MOVQ      R11, DX
	XORQ      AX, AX

t1z_depth16:
	VMOVUPD.Z (DX), K1, Z8
	VMOVUPD.Z 64(DX), K2, Z9
	ZSTEP16(SI, Z0, Z1)
	ADDQ      R10, DX
	INCQ      AX
	CMPQ      AX, R9
	JL        t1z_depth16
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD   Z1, K2, 64(DI)
	ADDQ      $128, DI
	ADDQ      $128, R11
	SUBQ      $16, CX
	JG        t1z_cols16
	JMP       t1z_done

t1z_cols8:
	VMOVUPD.Z (DI), K1, Z0
	MOVQ      R11, DX
	XORQ      AX, AX

t1z_depth8:
	VMOVUPD.Z (DX), K1, Z8
	ZSTEP8(SI, Z0)
	ADDQ      R10, DX
	INCQ      AX
	CMPQ      AX, R9
	JL        t1z_depth8
	VMOVUPD   Z0, K1, (DI)

t1z_done:
	VZEROUPPER
	RET

// func hasZeroAVX2(a []float64, lda, rows, k int) bool
//
// Reports whether the rows×k strided a-slice holds a zero of either
// sign. Per row: eight elements per iteration compared equal to +0
// (ordered, so NaN never matches) with the masks ORed together, then
// the 0–7 element tail one at a time. rows ≥ 1.
TEXT ·hasZeroAVX2(SB), NOSPLIT, $0-49
	MOVQ   a_base+0(FP), SI
	MOVQ   lda+24(FP), R8
	SHLQ   $3, R8
	MOVQ   rows+32(FP), R9
	MOVQ   k+40(FP), CX
	MOVQ   CX, DX
	ANDQ   $-8, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

hz_row:
	XORQ AX, AX

hz_loop8:
	CMPQ   AX, DX
	JGE    hz_tail
	VCMPPD $0, (SI)(AX*8), Y0, Y2
	VCMPPD $0, 32(SI)(AX*8), Y0, Y3
	VORPD  Y2, Y1, Y1
	VORPD  Y3, Y1, Y1
	ADDQ   $8, AX
	JMP    hz_loop8

hz_tail:
	CMPQ    AX, CX
	JGE     hz_next_row
	UCOMISD (SI)(AX*8), X0
	JNE     hz_next
	JNP     hz_found // equal and ordered

hz_next:
	INCQ AX
	JMP  hz_tail

hz_next_row:
	ADDQ R8, SI
	DECQ R9
	JNZ  hz_row
	VPTEST     Y1, Y1
	VZEROUPPER
	JNZ        hz_vector_found
	MOVB       $0, ret+48(FP)
	RET

hz_found:
	VZEROUPPER

hz_vector_found:
	MOVB $1, ret+48(FP)
	RET
