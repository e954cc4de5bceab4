module gowatchdog/benchmark

go 1.22

require gowatchdog v0.0.0

replace gowatchdog => ../
