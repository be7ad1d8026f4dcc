package cudart

// Kernel payloads: the functional arithmetic a kernel launch performs on
// backed buffers when it completes. Every launch path — GemmAsync,
// GemvAsync, AxpyAsync and the plan replay's KernelOp calls — describes
// its arithmetic as a Payload, and this file holds the one blas call per
// kernel kind.

import (
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/parallel"
)

// PayloadKind selects the blas body a payload runs.
type PayloadKind uint8

// The payload kinds. The factorization kinds are the tile kernels the
// task-graph plans launch; their payloads run the reference CPU kernels,
// so a backed factorization replay produces real numerics tile by tile.
const (
	PayloadGemm  PayloadKind = iota // C = alpha*op(A)*op(B) + beta*C
	PayloadGemv                     // C = alpha*op(A)*B + beta*C over vectors B, C
	PayloadAxpy                     // C += alpha*A over vectors
	PayloadPotrf                    // A = chol(A), triangle per Uplo
	PayloadGetrf                    // A = LU(A), unpivoted
	PayloadTrsm                     // B = alpha*op(A)^-1*B (Side L) or alpha*B*op(A)^-1 (Side R)
	PayloadSyrk                     // C = alpha*A*A^T + beta*C (TransA N) or alpha*A^T*A + beta*C (T)
)

var payloadNames = [...]string{"gemm", "gemv", "axpy", "potrf", "getrf", "trsm", "syrk"}

func (k PayloadKind) String() string { return payloadNames[k] }

// Operand is one device-side kernel operand: the window of Buf at element
// offset Off with leading dimension Ld (vectors have unit stride and no
// leading dimension).
type Operand struct {
	Buf *DevBuffer
	Off int64
	Ld  int
}

// Payload describes the arithmetic of one kernel launch. Kind decides
// which fields are read; unread operands may be left zero. The payload
// runs only when its output operand (see out) is backed. The caller owns
// operand validity: a blas shape error in a running payload panics, like
// an impossible launch on real hardware faults.
type Payload struct {
	Kind                             PayloadKind
	TransA, TransB, Side, Uplo, Diag byte
	M, N, K                          int
	Alpha, Beta                      float64
	A, B, C                          Operand
}

// out returns the operand the payload writes.
func (p *Payload) out() Operand {
	switch p.Kind {
	case PayloadPotrf, PayloadGetrf:
		return p.A
	case PayloadTrsm:
		return p.B
	}
	return p.C
}

// run executes the payload in the output buffer's precision.
func (p *Payload) run(pool *parallel.Pool, policy blas.KernelPolicy) error {
	if p.out().Buf.dt == kernelmodel.F32 {
		return runPayload(p, pool, policy, (*DevBuffer).F32)
	}
	return runPayload(p, pool, policy, (*DevBuffer).F64)
}

// runPayload dispatches p to its blas body over the F-typed storage that
// data extracts from each operand buffer. The SYRK body writes the full
// tile whatever Uplo says (the framework has no packed triangular
// storage); factorization plans never read the unreferenced triangle.
func runPayload[F blas.Float](p *Payload, pool *parallel.Pool, policy blas.KernelPolicy, data func(*DevBuffer) []F) error {
	view := func(o Operand) []F {
		if o.Buf == nil {
			return nil
		}
		return data(o.Buf)[o.Off:]
	}
	a, b, c := view(p.A), view(p.B), view(p.C)
	alpha, beta := F(p.Alpha), F(p.Beta)
	switch p.Kind {
	case PayloadGemm:
		return blas.GemmParallelPolicy(pool, policy, p.TransA, p.TransB, p.M, p.N, p.K,
			alpha, a, p.A.Ld, b, p.B.Ld, beta, c, p.C.Ld)
	case PayloadGemv:
		return blas.Gemv(p.TransA, p.M, p.N, alpha, a, p.A.Ld, b, 1, beta, c, 1)
	case PayloadAxpy:
		return blas.Axpy(p.N, alpha, a, 1, c, 1)
	case PayloadPotrf:
		return blas.Potrf(p.Uplo, p.N, a, p.A.Ld)
	case PayloadGetrf:
		return blas.Getrf(p.N, a, p.A.Ld)
	case PayloadTrsm:
		return blas.Trsm(p.Side, p.Uplo, p.TransA, p.Diag, p.M, p.N, alpha, a, p.A.Ld, b, p.B.Ld)
	case PayloadSyrk:
		return blas.Syrk(p.TransA, p.N, p.K, alpha, a, p.A.Ld, beta, c, p.C.Ld)
	}
	return fmt.Errorf("unknown payload kind %d", p.Kind)
}

// kernelCall is a Payload bound to its runtime for the lifetime of one
// in-flight kernel; it recycles through the runtime's call free list.
type kernelCall struct {
	Payload
	rt  *Runtime
	run func() // method value of exec, created once per object
}

// exec runs the payload under the runtime's worker pool and kernel policy.
func (c *kernelCall) exec() {
	if err := c.Payload.run(c.rt.payloadPool, c.rt.payloadPolicy); err != nil {
		panic(fmt.Sprintf("cudart: %s payload: %v", c.Kind, err))
	}
}
