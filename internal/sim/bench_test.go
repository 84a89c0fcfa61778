package sim

import "testing"

// BenchmarkEventDispatch measures raw scheduler throughput: schedule and
// execute closure events with no process switches.
func BenchmarkEventDispatch(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.After(Duration(i), func() {})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures the cost of a full process suspend and
// resume (two coroutine switches per Wait).
func BenchmarkProcessSwitch(b *testing.B) {
	s := New()
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceHandoff measures contended acquire/release pairs.
func BenchmarkResourceHandoff(b *testing.B) {
	s := New()
	r := NewResource(s, "r", 1)
	for w := 0; w < 2; w++ {
		s.Spawn("worker", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Acquire(p, 1)
				p.Wait(1)
				r.Release(1)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMailboxSendRecv measures mailbox round trips between two
// processes.
func BenchmarkMailboxSendRecv(b *testing.B) {
	s := New()
	m := NewMailbox(s, "m")
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m.Send(i)
			p.Wait(1)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m.Recv(p)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
