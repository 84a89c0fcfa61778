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

// BenchmarkWarmSpawn measures a fresh Simulation running one short
// process: New, Spawn and Run, the process on a worker the simulation
// before it handed to the process's idle list.
func BenchmarkWarmSpawn(b *testing.B) {
	body := func(p *Proc) { p.Wait(Microsecond) }
	for i := 0; i < b.N; i++ {
		s := New()
		s.Spawn("short", body)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
